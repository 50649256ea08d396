import numpy as np
import pytest

from parcot.errors import ConfigError, LayoutError
from parcot.positional import (
    ANSWER,
    FLATTENED,
    PROMPT,
    SHARED,
    PositionAssignment,
    Rope,
    ThoughtEmbeddingTable,
    init_thought_table,
    load_thought_table,
    path_key,
    save_thought_table,
    zero_thought_table,
)

from oracles import augment_kv, decompose_score, layer_row, rope_matrix

RNG = np.random.default_rng(123)


@pytest.fixture(scope="module")
def rope():
    return Rope(d_k=16, base=10000.0)


class TestRope:
    def test_position_zero_is_identity(self, rope):
        v = RNG.standard_normal(16)
        assert np.allclose(rope.rotate(v, 0), v, atol=0)

    def test_rotation_preserves_norm(self, rope):
        v = RNG.standard_normal(16)
        rotated = rope.rotate(v, 17)
        assert abs(np.linalg.norm(rotated) - np.linalg.norm(v)) <= 1e-6

    def test_transpose_rotation_matches_relative_rotation(self, rope):
        # (R_n)^T (R_m v) should equal R_{m-n} v, via dense matrices
        v = RNG.standard_normal(16)
        for m, n in [(9, 4), (3, 11), (25, 25)]:
            back = rope_matrix(rope, n).T @ (rope_matrix(rope, m) @ v)
            direct = rope.rotate(v, m - n)
            assert np.max(np.abs(back - direct)) <= 1e-6

    def test_additivity_over_random_pairs(self, rope):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            m, n = rng.integers(0, 4096, size=2)
            lhs = rope_matrix(rope, int(n)).T @ rope_matrix(rope, int(m))
            rhs = rope_matrix(rope, int(m) - int(n))
            assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_per_row_positions_match_scalar_rotations(self, rope):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((40, 3, 16)).astype(np.float32)
        t = rng.integers(0, 4096, size=40)
        rotated = rope.rotate(v, t)
        for i in range(40):
            assert np.array_equal(rotated[i], rope.rotate(v[i], int(t[i])))
        with pytest.raises(ConfigError):
            rope.rotate(v, t[:39])

    def test_broadcast_tables_rotate_each_block_per_row(self, rope):
        """[n, 1, d_k] tables give row i of every [n, h, d_k] block the
        bits of its own scalar rotation."""
        rng = np.random.default_rng(9)
        v = rng.standard_normal((2, 40, 3, 16)).astype(np.float32)
        t = rng.integers(0, 4096, size=40)
        rotated = rope.rotate(v, tuple(part[:, None] for part in rope.tables(t)))
        for block in range(2):
            for i in range(40):
                assert np.array_equal(rotated[block, i], rope.rotate(v[block, i], int(t[i])))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ConfigError):
            Rope(d_k=15, base=10000.0)

    def test_dimension_mismatch_rejected(self, rope):
        with pytest.raises(ConfigError):
            rope.rotate(np.zeros(8), 3)


class TestAugmentKV:
    def make_table(self, d_k=16, p_max=4):
        return init_thought_table(p_max, n_layers=1, n_heads=1, d_k=d_k, seed=9)

    def test_zero_embedding_reduces_to_plain_rope(self, rope):
        table = zero_thought_table(4, 1, 1, 16)
        k = RNG.standard_normal(16).astype(np.float32)
        v = RNG.standard_normal(16).astype(np.float32)
        k_aug, v_aug = augment_kv(k, v, j=2, t=5, table=table, rope=rope)
        assert np.allclose(k_aug, rope.rotate(k, 5), atol=1e-7)
        assert np.array_equal(v_aug, v)

    def test_position_zero_skips_rotation(self, rope):
        table = self.make_table()
        k = RNG.standard_normal(16).astype(np.float32)
        v = RNG.standard_normal(16).astype(np.float32)
        k_aug, _ = augment_kv(k, v, j=3, t=0, table=table, rope=rope)
        expected = k + layer_row(table, 3, 0)[0]
        assert np.max(np.abs(k_aug - expected)) <= 1e-7

    def test_score_identity_against_dense_rotations(self, rope):
        # q at n against an augmented key at m must split into the two
        # relative-rotation terms, each computed with dense matrices here
        table = self.make_table()
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = rng.standard_normal(16)
            k = rng.standard_normal(16)
            v = rng.standard_normal(16)
            j = int(rng.integers(0, 5))
            m = int(rng.integers(0, 200))
            n = int(rng.integers(0, 200))
            k_aug, _ = augment_kv(k, v, j=j, t=m, table=table, rope=rope)
            left = (rope_matrix(rope, n) @ q) @ k_aug
            rel = rope_matrix(rope, m - n)
            thought = layer_row(table, j, 0)[0]
            right = q @ (rel @ k) + q @ (rel @ thought)
            assert abs(left - right) <= 1e-6

    def test_out_of_range_index(self, rope):
        table = self.make_table(p_max=4)
        k = np.zeros(16, dtype=np.float32)
        with pytest.raises(IndexError):
            augment_kv(k, k, j=5, t=1, table=table, rope=rope)


class TestDecomposeScore:
    def test_zero_thought_gives_zero_segment_term(self, rope):
        q = RNG.standard_normal(16)
        k = RNG.standard_normal(16)
        _, cs = decompose_score(q, 3, k, 10, np.zeros(16), rope)
        assert cs == 0.0

    def test_equal_positions_give_plain_dot(self, rope):
        q = RNG.standard_normal(16)
        k = RNG.standard_normal(16)
        thought = RNG.standard_normal(16)
        cc, _ = decompose_score(q, 7, k, 7, thought, rope)
        assert abs(cc - float(q @ k)) <= 1e-9

    def test_sum_matches_full_score(self, rope):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            q = rng.standard_normal(16)
            k = rng.standard_normal(16)
            thought = rng.standard_normal(16)
            m = int(rng.integers(0, 4096))
            n = int(rng.integers(0, 4096))
            cc, cs = decompose_score(q, n, k, m, thought, rope)
            full = (rope_matrix(rope, n) @ q) @ (rope_matrix(rope, m) @ (k + thought))
            assert abs((cc + cs) - full) <= 1e-6


def position(a, segment, t):
    """Absolute position of a segment's t-th slot (1-based)."""
    return int(a.positions(segment, t - 1, 1)[0])


class TestAssignPosition:
    def test_flattened_formula(self):
        a = PositionAssignment(FLATTENED, l_x=4, l_max=8, num_paths=4)
        assert position(a, path_key(2), 3) == 23

    def test_shared_positions_coincide_across_paths(self):
        a = PositionAssignment(SHARED, l_x=4, l_max=8, num_paths=4)
        assert {position(a, path_key(i), 3) for i in range(4)} == {7}

    def test_shared_answer_position(self):
        a = PositionAssignment(SHARED, l_x=4, l_max=16, num_paths=2, reasoning_len=10)
        assert position(a, ANSWER, 1) == 15

    def test_prompt_positions(self):
        a = PositionAssignment(SHARED, l_x=4, l_max=8)
        assert [position(a, PROMPT, t) for t in (1, 4)] == [1, 4]

    def test_cap_exceeded(self):
        a = PositionAssignment(SHARED, l_x=4, l_max=8)
        with pytest.raises(LayoutError):
            position(a, path_key(0), 9)

    def test_positions_increase_within_segment(self):
        a = PositionAssignment(FLATTENED, l_x=3, l_max=6, num_paths=3, reasoning_len=6)
        for seg in (PROMPT, path_key(1), ANSWER):
            top = 3 if seg == PROMPT else 6
            ms = [position(a, seg, t) for t in range(1, top + 1)]
            assert ms == sorted(ms) and len(set(ms)) == len(ms)

    @pytest.mark.parametrize("scheme", [SHARED, FLATTENED])
    def test_ranges_match_the_slot_by_slot_formula(self, scheme):
        l_x, l_max, num_paths, reasoning_len = 5, 9, 3, 7
        a = PositionAssignment(scheme, l_x, l_max, num_paths, reasoning_len)
        flat = scheme == FLATTENED

        def literal(seg, t):  # the case split of the class docstring
            if seg == PROMPT:
                return t
            if seg == ANSWER:
                return l_x + flat * (num_paths - 1) * l_max + reasoning_len + t
            return l_x + flat * int(seg.split(":")[1]) * l_max + t

        for seg, cap in [(PROMPT, 5), (path_key(0), 9), (path_key(2), 9), (ANSWER, 12)]:
            for start in range(cap):
                for n in range(cap - start + 1):
                    got = a.positions(seg, start, n)
                    want = [literal(seg, t) for t in range(start + 1, start + n + 1)]
                    assert got.dtype == np.int64 and got.tolist() == want
            assert a.base(seg) == literal(seg, 0)

    @pytest.mark.parametrize(
        "segment, start, n, message",
        [
            (PROMPT, -1, 2, "local index must be >= 1, got 0"),
            (PROMPT, 2, 3, "prompt index 5 exceeds prompt length 4"),
            (path_key(1), 6, 3, "path index 9 exceeds per-path cap 8"),
            ("seq", 0, 1, "not a path segment"),
        ],
    )
    def test_range_errors_name_the_first_bad_index(self, segment, start, n, message):
        a = PositionAssignment(SHARED, l_x=4, l_max=8, num_paths=2)
        with pytest.raises(LayoutError, match=message):
            a.positions(segment, start, n)
        with pytest.raises(LayoutError, match="answer positions need the reasoning length"):
            a.positions(ANSWER, 0, 1)

    def test_growth_contrast(self):
        # flattened max grows linearly in P; shared max ignores P
        l_x, l_max, reasoning_len, answer_len = 4, 12, 9, 5
        flattened_maxima = []
        shared_maxima = []
        for num_paths in (1, 2, 4, 8):
            flat = PositionAssignment(
                FLATTENED, l_x=l_x, l_max=l_max, num_paths=num_paths,
                reasoning_len=reasoning_len,
            )
            shared = PositionAssignment(
                SHARED, l_x=l_x, l_max=l_max, num_paths=num_paths,
                reasoning_len=reasoning_len,
            )
            last_path = flat.positions(path_key(num_paths - 1), 0, reasoning_len)
            assert last_path[-1] == l_x + (num_paths - 1) * l_max + reasoning_len
            flattened_maxima.append(last_path[-1])
            shared_maxima.append(
                position(shared, ANSWER, answer_len)
            )
        diffs = np.diff(flattened_maxima)
        assert all(d == l_max * step for d, step in zip(diffs, [1, 2, 4]))
        assert set(shared_maxima) == {l_x + reasoning_len + answer_len}


class TestThoughtTable:
    def test_shape_and_distinct_rows(self, rope):
        table = init_thought_table(8, n_layers=2, n_heads=3, d_k=16, seed=5)
        assert table.vectors.shape == (9, 2, 3, 16)
        assert table.p_max == 8
        flat = table.vectors.reshape(9, -1)
        assert len({row.tobytes() for row in flat}) == 9

    def test_deterministic_init(self):
        a = init_thought_table(4, 1, 2, 16, seed=6)
        b = init_thought_table(4, 1, 2, 16, seed=6)
        assert np.array_equal(a.vectors, b.vectors)

    def test_duplicate_rows_rejected(self):
        vectors = np.zeros((3, 1, 1, 4), dtype=np.float32)
        vectors[0, ..., 0] = 1.0
        with pytest.raises(ConfigError):
            ThoughtEmbeddingTable(vectors)

    def test_first_duplicate_pair_in_loop_order_is_named(self):
        vectors = init_thought_table(16, 2, 4, 16, seed=3).vectors.copy()
        vectors[12] = vectors[3]
        vectors[9] = vectors[4]
        with pytest.raises(ConfigError, match=r"^thought rows 3 and 12 are identical$"):
            ThoughtEmbeddingTable(vectors)
        # the pair a nested loop over (a, b > a) meets first, on random tables
        rng = np.random.default_rng(31)
        for _ in range(40):
            rows = int(rng.integers(2, 12))
            vectors = rng.integers(0, 3, (rows, 1, 1, 2)).astype(np.float32)
            pairs = [
                (a, b) for a in range(rows) for b in range(a + 1, rows)
                if np.array_equal(vectors[a], vectors[b])
            ]
            if not pairs:
                ThoughtEmbeddingTable(vectors)
                continue
            a, b = pairs[0]
            with pytest.raises(ConfigError, match=rf"^thought rows {a} and {b} are identical$"):
                ThoughtEmbeddingTable(vectors)

    def test_signed_zeros_count_as_equal(self):
        vectors = np.ones((3, 1, 2, 2), dtype=np.float32)
        vectors[:, 0, 0, 0] = [1.0, 0.0, -0.0]
        vectors[0, 0, 1, 1] = 2.0
        with pytest.raises(ConfigError, match="thought rows 1 and 2 are identical"):
            ThoughtEmbeddingTable(vectors)

    def test_file_round_trip(self, tmp_path):
        table = init_thought_table(5, 2, 2, 16, seed=8)
        path = str(tmp_path / "table.ptt")
        save_thought_table(table, path)
        loaded = load_thought_table(path)
        assert np.array_equal(loaded.vectors, table.vectors)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "table.ptt"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ConfigError):
            load_thought_table(str(path))

    @pytest.mark.parametrize("size", [4, 12, 19])
    def test_file_shorter_than_its_header_rejected(self, tmp_path, size):
        path = tmp_path / "table.ptt"
        path.write_bytes((b"PTT1" + b"\1" * 16)[:size])
        with pytest.raises(ConfigError, match="shorter than its 20-byte header"):
            load_thought_table(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        table = init_thought_table(2, 1, 1, 4, seed=8)
        path = tmp_path / "table.ptt"
        save_thought_table(table, str(path))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ConfigError):
            load_thought_table(str(path))

    def test_segment_term_discriminates_paths(self, rope):
        # for a fixed query the content-to-segment term must vary with j
        table = init_thought_table(6, 1, 1, 16, seed=10)
        q = RNG.standard_normal(16)
        k = np.zeros(16)
        terms = {
            round(decompose_score(q, 5, k, 9, layer_row(table, j, 0)[0], rope)[1], 12)
            for j in range(1, 7)
        }
        assert len(terms) > 1
