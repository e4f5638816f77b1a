import warnings

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, DomainError, ShapeError

from helpers import NEG_INF, rand_matrix, rand_regular_vector, shift_feasible

# the 2x2 pair used throughout: every derived value below was checked by hand
A2 = [[0.0, -3.0], [-5.0, -2.0]]
B2 = [[0.0, -8.0], [5.0, -3.0]]


class TestConstruction:
    def test_as_matrix_validates(self):
        with pytest.raises(ShapeError):
            ts.as_matrix([1.0, 2.0])
        with pytest.raises(ShapeError):
            ts.as_matrix([[1.0], [2.0, 3.0]])
        with pytest.raises(DomainError):
            ts.as_matrix([[float("nan")]])
        with pytest.raises(DomainError):
            ts.as_matrix([[float("inf")]])
        with pytest.raises(DomainError):
            ts.as_matrix([[NEG_INF]], MIN_PLUS)

    @pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
    def test_entrywise_leq_validates_both_operands(self, sf):
        wrong_inf = -sf.zero
        for bad in (float("nan"), wrong_inf):
            with pytest.raises(DomainError):
                ts.entrywise_leq([bad], [0.0], sf)
            with pytest.raises(DomainError):
                ts.entrywise_leq([[0.0]], [[bad]], sf)
        # vectors and matrices alike, the zero element included
        assert ts.entrywise_leq([sf.zero, 0.0], [0.0, 0.0], sf)
        assert not ts.entrywise_leq([[0.0]], [[sf.zero]], sf)

    @pytest.mark.parametrize("bad", [[[1.0], [2.0, 3.0]], ["a", 1.0], [object()]])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: ts.as_vector(v),
            lambda v: ts.mat_vec([[0.0]], v),
            lambda v: ts.scalar_mul(1.0, v),
            lambda v: ts.entrywise_leq(v, v),
            lambda v: ts.collinear(v, v),
            lambda v: ts.objective([[0.0]], v),
            lambda v: ts.is_regular(v),
            lambda v: ts.as_matrix(v),
        ],
        ids=["as_vector", "mat_vec", "scalar_mul", "entrywise_leq", "collinear", "objective",
             "is_regular", "as_matrix"],
    )
    def test_ragged_or_non_numeric_input_is_a_shape_error(self, call, bad):
        with pytest.raises(ShapeError):
            call(bad)

    def test_inputs_are_never_mutated(self):
        M = np.array(A2)
        before = M.copy()
        ts.mat_add(M, M)
        ts.kleene_star(M)
        ts.scalar_mul(-2.0, M)
        assert np.array_equal(M, before)

    def test_identity_and_zero(self):
        I = ts.identity_matrix(3)
        assert np.array_equal(np.diagonal(I), np.zeros(3))
        assert np.all(I[~np.eye(3, dtype=bool)] == NEG_INF)
        Z = ts.zero_matrix(2, 3)
        assert Z.shape == (2, 3) and np.all(Z == NEG_INF)


class TestArithmetic:
    def test_mat_add_of_scaled_objective_and_constraint(self):
        scaled = ts.scalar_mul(-2.0, A2)  # theta**-1 A with theta = 2
        assert np.array_equal(scaled, [[-2.0, -5.0], [-7.0, -4.0]])
        assert np.array_equal(ts.mat_add(scaled, B2), [[0.0, -5.0], [5.0, -3.0]])

    def test_mat_add_neutral_and_idempotent(self):
        A = ts.as_matrix(A2)
        assert np.array_equal(ts.mat_add(A, ts.zero_matrix(2)), A)
        assert np.array_equal(ts.mat_add(A, A), A)
        with pytest.raises(ShapeError):
            ts.mat_add(A, ts.zero_matrix(3))

    def test_mat_mul(self):
        assert np.array_equal(ts.mat_mul(A2, B2), [[2.0, -6.0], [3.0, -5.0]])
        A = ts.as_matrix(A2)
        assert np.array_equal(ts.mat_mul(A, ts.identity_matrix(2)), A)
        assert np.all(ts.mat_mul(A, ts.zero_matrix(2)) == NEG_INF)

    def test_mat_mul_past_one_broadcast(self):
        # 100 x 100 x 100 is past the single-broadcast size, so the product
        # loops over the middle index; the max or min is the same
        rng = np.random.default_rng(11)
        for sf, reduce_add in ((MAX_PLUS, np.max), (MIN_PLUS, np.min)):
            A, B = (rand_matrix(rng, 100, zero_density=0.5) for _ in range(2))
            A[A == NEG_INF] = B[B == NEG_INF] = sf.zero
            expected = reduce_add(A[:, :, None] + B[None, :, :], axis=1)
            assert np.array_equal(ts.mat_mul(A, B, sf), expected)

    def test_mat_pow(self):
        assert np.array_equal(ts.mat_pow(A2, 2), [[0.0, -3.0], [-5.0, -4.0]])
        assert np.array_equal(ts.mat_pow(A2, 0), ts.identity_matrix(2))
        # B is idempotent under the semiring product (checked by hand)
        assert np.array_equal(ts.mat_pow(B2, 2), ts.as_matrix(B2))

    @pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
    def test_mat_pow_is_a_chain_of_products(self, sf):
        # squaring against the definition: p products by mat_mul, one by one
        rng = np.random.default_rng(13)
        for n in (1, 3, 6):
            A = rand_matrix(rng, n)
            A[A == NEG_INF] = sf.zero
            chain = ts.identity_matrix(n, sf)
            for p in range(71):
                assert np.array_equal(ts.mat_pow(A, p, sf), chain), (n, p)
                chain = ts.mat_mul(chain, A, sf)

    @pytest.mark.parametrize("p", [2, np.int64(2), 2.0, np.float64(2.0), True])
    def test_mat_pow_accepts_integral_exponents(self, p):
        assert np.array_equal(ts.mat_pow(A2, p), ts.mat_pow(A2, int(p)))

    @pytest.mark.parametrize(
        "p", [-1, 2.5, float("inf"), float("nan"), "2", None], ids=repr
    )
    def test_mat_pow_rejects_other_exponents(self, p):
        with pytest.raises(DomainError, match="nonnegative integer"):
            ts.mat_pow(A2, p)

    def test_scalar_mul_units(self):
        A = ts.as_matrix(A2)
        assert np.array_equal(ts.scalar_mul(MAX_PLUS.one, A), A)
        assert np.all(ts.scalar_mul(NEG_INF, A) == NEG_INF)

    def test_trace(self):
        assert ts.trace(A2) == 0.0
        assert ts.trace(ts.identity_matrix(4)) == MAX_PLUS.one
        assert ts.trace(ts.mat_mul(A2, B2)) == 2.0
        with pytest.raises(ShapeError):
            ts.trace(ts.zero_matrix(2, 3))


class TestConjugate:
    def test_values(self):
        assert np.array_equal(ts.conjugate([0.0, 5.0]), [0.0, -5.0])
        assert np.array_equal(ts.conjugate([NEG_INF, 3.0]), [NEG_INF, -3.0])

    def test_regular_conjugate_cancels(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rand_regular_vector(rng, int(rng.integers(1, 6)))
            xc = ts.conjugate(x)
            assert np.max(xc + x) == MAX_PLUS.one

    def test_all_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            ts.conjugate([NEG_INF, NEG_INF])

    def test_antitone_on_regular_vectors(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            x = rand_regular_vector(rng, n)
            y = x + rng.integers(0, 7, size=n)
            assert ts.entrywise_leq(x, y)
            assert ts.entrywise_leq(ts.conjugate(y), ts.conjugate(x))

    def test_outer_product_dominates_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x = rand_regular_vector(rng, n)
            outer = x[:, None] + ts.conjugate(x)[None, :]
            assert ts.entrywise_leq(ts.identity_matrix(n), outer)


class TestKleeneStar:
    def test_worked_examples(self):
        assert np.array_equal(ts.kleene_star(A2), [[0.0, -3.0], [-5.0, 0.0]])
        assert np.array_equal(
            ts.kleene_star([[0.0, -5.0], [5.0, -3.0]]), [[0.0, -5.0], [5.0, 0.0]]
        )
        assert np.array_equal(ts.kleene_star(ts.zero_matrix(3)), ts.identity_matrix(3))

    def test_star_is_idempotent_when_tr_at_most_one(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            A = shift_feasible(rand_matrix(rng, n))
            S = ts.kleene_star(A)
            assert np.array_equal(ts.mat_mul(S, S), S)
            assert np.array_equal(ts.kleene_star(S), S)

    def test_min_plus_star_solves_shortest_paths(self):
        # star entries are cheapest path costs when no negative cycle exists
        W = ts.as_matrix([[0.0, 4.0, float("inf")], [float("inf"), 0.0, 1.0], [2.0, float("inf"), 0.0]], MIN_PLUS)
        S = ts.kleene_star(W, MIN_PLUS)
        assert S[0, 2] == 5.0  # 0 -> 1 -> 2
        assert S[2, 1] == 6.0  # 2 -> 0 -> 1

    def test_large_star_is_the_bounded_power_sum(self):
        # n = 70 takes the product's loop, and the power (I (+) A)**69 takes
        # both branches of squaring (69 = 0b1000101); positive cycles make
        # Tr(A) > 1
        rng = np.random.default_rng(12)
        A = rand_matrix(rng, 70, zero_density=0.9)
        horner = ts.identity_matrix(70)
        for _ in range(69):
            horner = np.maximum(ts.identity_matrix(70), ts.mat_mul(A, horner))
        assert ts.big_tr(A) > 0
        assert np.array_equal(ts.kleene_star(A), horner)

    def test_an_overflow_that_selects_the_power_warns_of_nothing(self):
        # every entry is at the range guard's edge, 2**1000 / 48**2: the
        # positive cycles double walk weights past the float range in the
        # Floyd-Warshall pass, which only selects the power (I (+) A)**47,
        # and that power is finite (a walk of 47 edges)
        b = 2.0**1000 / 48**2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = ts.kleene_star(np.full((48, 48), b))
        assert np.array_equal(S, np.full((48, 48), 47 * b))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ts.kleene_star([[1e308] * 3] * 3)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
@pytest.mark.parametrize(
    "call",
    [
        lambda b, sf: ts.mat_mul([[b]], [[b]], sf),
        lambda b, sf: ts.mat_pow([[b]], 2, sf),
        lambda b, sf: ts.mat_vec([[b]], [b], sf),
        lambda b, sf: ts.scalar_mul(b, [[b]], sf),
        lambda b, sf: ts.objective([[b, b], [b, b]], [b, -b], sf),
    ],
    ids=["mat_mul", "mat_pow", "mat_vec", "scalar_mul", "objective"],
)
def test_overflow_to_the_wrong_sign_infinity_is_a_domain_error(call, sf):
    # b is far from the zero element, so b + b overflows away from it
    b = -1e308 if sf.zero == float("inf") else 1e308
    with pytest.raises(DomainError, match="overflow"):
        call(b, sf)


class TestTraceLaws:
    def test_trace_of_products_commutes(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            assert ts.trace(ts.mat_mul(A, B)) == ts.trace(ts.mat_mul(B, A))

    def test_trace_is_additive_and_homogeneous(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            c = float(rng.integers(-9, 10))
            assert ts.trace(ts.mat_add(A, B)) == MAX_PLUS.add(ts.trace(A), ts.trace(B))
            assert ts.trace(ts.scalar_mul(c, A)) == MAX_PLUS.mul(c, ts.trace(A))


class TestCollinearity:
    def test_examples(self):
        assert ts.collinear([0.0, 5.0], [-5.0, 0.0]) == -5.0
        assert ts.collinear([0.0, 5.0], [0.0, 4.0]) is None
        assert ts.collinear([NEG_INF, 1.0], [NEG_INF, 3.0]) == 2.0

    def test_zero_pattern_mismatch(self):
        assert ts.collinear([NEG_INF, 1.0], [0.0, 3.0]) is None

    def test_is_regular(self):
        assert ts.is_regular([0.0, 5.0])
        assert not ts.is_regular([NEG_INF, 3.0])

    def test_reduce_generators_worked_example(self):
        G = ts.reduce_generators([[0.0, -5.0], [5.0, 0.0]])
        assert np.array_equal(G, [[0.0], [5.0]])

    def test_reduce_generators_keeps_independent_columns(self):
        I = ts.identity_matrix(2)
        assert np.array_equal(ts.reduce_generators(I), I)

    def test_reduce_generators_drops_duplicates_and_zero_columns(self):
        G = ts.as_matrix([[1.0, NEG_INF, 1.0], [2.0, NEG_INF, 2.0]])
        assert np.array_equal(ts.reduce_generators(G), [[1.0], [2.0]])
        Z = ts.zero_matrix(2, 2)
        assert np.array_equal(ts.reduce_generators(Z), Z[:, :1])

    def test_reduce_generators_preserves_span(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            base = rand_matrix(rng, n, zero_density=0.1)
            # append scaled copies of random columns, then shuffle
            cols = [base[:, j] for j in range(n)]
            for _ in range(int(rng.integers(1, 4))):
                j = int(rng.integers(0, n))
                cols.append(float(rng.integers(-9, 10)) + base[:, j])
            order = rng.permutation(len(cols))
            G = np.stack([cols[i] for i in order], axis=1)
            kept = ts.reduce_generators(G)
            for j in range(G.shape[1]):
                col = G[:, j]
                if bool(np.all(col == NEG_INF)):
                    continue
                matches = [
                    ts.collinear(kept[:, i], col) for i in range(kept.shape[1])
                ]
                assert any(c is not None for c in matches)
