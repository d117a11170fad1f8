"""Frozen certificates: serialized traces stay byte-for-byte the same.

The digest covers ``reduce`` on seeded integer matrices (n <= 5, all four
targets) and rational matrices (n <= 3, both semidefinite targets), the
I + CC^T chain on a few C, and both hand-encoded chains.  A change to any
move the reducer or the chain builders emit changes the digest.  A second
digest pins the matrix text formats on the same certificates: every start
and end matrix in "sym N" form and every congruence matrix in "int R C"
form.  A third hashes the start and end matrices alone, so it holds across
a change that respells the moves between them but keeps what they reach.
A fourth pins ``cct_search``: the first factor it finds, or NONE, on seeded
Gram products, shear congruences of the obstructed matrix, and three
scalar matrices deep enough to guard its recursion depth.
"""

import hashlib
import random

from kinkeq import (
    NEG_DEFINITE,
    NEG_SEMIDEFINITE,
    POS_DEFINITE,
    POS_SEMIDEFINITE,
    Congruence,
    IntMatrix,
    SymMatrix,
    cct_search,
    congruence,
    determinant,
    icct_trace,
    reduce,
)
from kinkeq.formats import serialize_int_matrix, serialize_matrix, serialize_trace
from kinkeq.worked_examples import (
    OBSTRUCTED_GRAM_MATRIX,
    five_to_minus_five_trace,
    obstructed_matrix_reduction_trace,
)

from oracles import random_int_matrix, random_sym, random_sym_rational

DIGEST = "aa2716b51c3b46326f4c06f2fa4eec1bde650758473cc68762e9a587325a6e92"
MATRIX_DIGEST = "d64aaee85ee506c6b77029d7e01df2d7407c4edd525987ec0ffd162fd5ee3257"
START_END_DIGEST = "338e07167c446a9cad8f9f0a471ad50a574c5034cb354f0ba5f34a762f9fe851"
CCT_SEARCH_DIGEST = "26c2ced5c9c14f65a545ab78400d750f2c24b35f4133202b362d5514f072b247"


def _certificates():
    rng = random.Random(3)
    for _ in range(20):
        G = random_sym(rng, rng.randint(1, 5), 4)
        for target in (NEG_DEFINITE, POS_DEFINITE, NEG_SEMIDEFINITE, POS_SEMIDEFINITE):
            if target in (NEG_DEFINITE, POS_DEFINITE) and determinant(G) == 0:
                continue
            yield reduce(G, target)
    for _ in range(10):
        G = random_sym_rational(rng, rng.randint(1, 3), 4, 6)
        for target in (NEG_SEMIDEFINITE, POS_SEMIDEFINITE):
            yield reduce(G, target)
    for n, m in ((1, 1), (2, 3), (3, 2), (3, 3)):
        yield icct_trace(random_int_matrix(rng, n, m))
    yield icct_trace(IntMatrix.from_rows([[0, 0]]))  # both block shears are I
    yield icct_trace(IntMatrix.from_rows([[], []], cols=0))
    yield five_to_minus_five_trace()
    yield obstructed_matrix_reduction_trace()


def test_certificate_digest():
    digest = hashlib.sha256()
    for trace in _certificates():
        digest.update(serialize_trace(trace).encode("utf-8"))
    assert digest.hexdigest() == DIGEST


def test_matrix_text_digest():
    digest = hashlib.sha256()
    for trace in _certificates():
        for G in (trace.start, trace.end):
            digest.update(serialize_matrix(G).encode("utf-8"))
        for move in trace.moves:
            if isinstance(move, Congruence):
                digest.update(serialize_int_matrix(move.matrix).encode("utf-8"))
    assert digest.hexdigest() == MATRIX_DIGEST


def test_start_end_digest():
    digest = hashlib.sha256()
    for trace in _certificates():
        for G in (trace.start, trace.end):
            digest.update(serialize_matrix(G).encode("utf-8"))
    assert digest.hexdigest() == START_END_DIGEST


def _cct_search_inputs():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 5)
        m = n + rng.randint(0, 2)
        C = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in range(m)] for _ in range(n)])
        yield SymMatrix.from_rows(C.matmul(C.transpose()).entries)
    for _ in range(6):
        a, b = rng.sample(range(6), 2)
        yield congruence(OBSTRUCTED_GRAM_MATRIX, IntMatrix.shear(6, {(a, b): rng.choice((1, -1))}))
    for scale, n in ((2, 25), (2, 40), (1, 30)):
        yield SymMatrix.diagonal([scale] * n)


def test_cct_search_digest():
    digest = hashlib.sha256()
    for G in _cct_search_inputs():
        factor = cct_search(G)
        text = "NONE" if factor is None else serialize_int_matrix(factor.matrix)
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == CCT_SEARCH_DIGEST
