"""Rank-metric precoding that makes the stable code leak nothing.

A capacity-sized secret is padded with uniform randomness and mixed through
a Gabidulin (Moore-matrix) generator over the extension field F_{q^B}; the
mixed vector becomes the B data cells of the stable code, each cell one
extension symbol.  Storage-code coefficients live in the base field F_q and
act on cells coordinate-wise, so every symbol an eavesdropper sees is an
ext-linear functional of the secret-plus-randomness vector.  Secrecy is then
an exact rank fact checked per instance, by two eliminations over the
extension field: the observed functionals must have no component outside
the randomness positions (zero mutual information with the secret).

The B cells are one generation of the data matrix, stored and recovered
through the tower code's encode_batch / reconstruct_batch, like files.

The tower F_{(2^4)^6} is fixed by the published reduction polynomial
y^6 + y^3 + (x^3 + 1) over GF(16), with GF(16) = GF(2)[x]/(x^4 + x + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .entropy import entropy_symbols, observations
from .errors import (
    DuplicateNode,
    FieldKindUnsupported,
    LengthMismatch,
    NotCoveredRegime,
)
from .eve import (
    NOT_COVERED,
    EveModel,
    download_spans,
    observed_rows,
    placements,
    predicted_secrecy_capacity,
    validate_eve,
)
from .field import ExtensionField
from .matrix import Mat, moore_matrix
from .stable import CodeParams, ShardVector, StableCode

# (base order, extension degree) -> reduction polynomial, low degree first
PUBLISHED_TOWERS = {
    (16, 6): (9, 0, 0, 1, 0, 0, 1),  # y^6 + y^3 + (x^3+1)
}


@dataclass(frozen=True)
class SecureScheme:
    code: StableCode  # the symbol-field code (functional/analysis layer)
    code_ext: StableCode  # same code lifted to the extension field (data layer)
    ext: ExtensionField
    gabidulin: Mat  # B x B Moore generator over ext
    secret_len: int
    random_len: int
    l1: int
    l2: int

    @property
    def B(self):
        return self.code.params.B


def scheme_create(code: StableCode, l1: int, l2: int) -> SecureScheme:
    """Size the secret from the closed-form capacity and build the mixer."""
    if code.field.kind != "binary":
        raise FieldKindUnsupported("secure mode runs over GF(2^m) symbol fields")
    p = code.params
    capacity = predicted_secrecy_capacity(p, l1, l2)
    if capacity is NOT_COVERED:
        raise NotCoveredRegime(f"no closed-form capacity for (l1={l1}, l2={l2})")
    if capacity == 0:
        raise NotCoveredRegime(f"capacity is 0 at (l1={l1}, l2={l2}); nothing to store")
    key = (code.field.order, p.B)
    if key not in PUBLISHED_TOWERS:
        raise FieldKindUnsupported(f"no published tower for q={key[0]}, degree={key[1]}")
    ext = ExtensionField(code.field, p.B, PUBLISHED_TOWERS[key])
    basis = [ext.from_coords([1 if s == i else 0 for s in range(p.B)]) for i in range(p.B)]
    gab = moore_matrix(ext, basis, p.B, code.field.order)
    ext_params = CodeParams.mscr(n=p.n, k=p.k, d=p.d, t=p.t, q=ext.order, beta=p.beta)
    code_ext = StableCode.create(ext_params, ext)
    return SecureScheme(
        code=code,
        code_ext=code_ext,
        ext=ext,
        gabidulin=gab,
        secret_len=capacity,
        random_len=p.B - capacity,
        l1=l1,
        l2=l2,
    )


def random_symbols(scheme: SecureScheme, rng, count: int):
    return tuple(rng.randrange(scheme.ext.order) for _ in range(count))


def precode(scheme: SecureScheme, secret, randomness):
    """Mix (secret || randomness) through the Moore generator -> B cells."""
    secret, randomness = tuple(secret), tuple(randomness)
    if len(secret) != scheme.secret_len:
        raise LengthMismatch(f"secret must be {scheme.secret_len} extension symbols")
    if len(randomness) != scheme.random_len:
        raise LengthMismatch(f"randomness must be {scheme.random_len} extension symbols")
    u = Mat(scheme.ext, 1, scheme.B, secret + randomness)
    return u.mul(scheme.gabidulin).row(0)


def encode_secure(scheme: SecureScheme, secret, randomness):
    """Full pipeline: mix, then encode the cells into n extension-symbol shards."""
    cells = precode(scheme, secret, randomness)
    payloads = scheme.code_ext.encode_batch(cells)
    return [ShardVector(node, payload) for node, payload in payloads.items()]


def decode_secret(scheme: SecureScheme, shards):
    """Reconstruct from any k shards and unmix; the randomness is discarded."""
    ids = sorted(s.node_id for s in shards)
    if len(set(ids)) != len(ids):
        raise DuplicateNode(f"duplicate node ids in {ids}")
    cells = scheme.code_ext.reconstruct_batch({s.node_id: s.symbols for s in shards})
    u = scheme.gabidulin.transpose().solve(Mat(scheme.ext, scheme.B, 1, cells)).col(0)
    return u[: scheme.secret_len]


# ---------------------------------------------------------------------------
# Secrecy verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecrecyCheck:
    eve: EveModel
    observed_rank: int
    randomness_entropy: int
    coverable: bool  # H(e) <= H(r)
    randomness_determined: bool  # H(r | secret, e) == 0
    mutual_information: int

    @property
    def passed(self):
        return self.mutual_information == 0


def _observed_vectors(scheme: SecureScheme, cell_rows, memo):
    """w(lam) = Gab @ lam^T over ext for each observed cell row lam.

    A cell row lam observes sum_j lam_j c_j with c = u @ Gab, which equals
    u . w(lam): one extension symbol, linear in u over ext.  memo maps each
    row already expanded to its w(lam), so a sweep expands every distinct
    row once.
    """
    ext = scheme.ext
    gab = scheme.gabidulin
    out = []
    for lam in cell_rows:
        w = memo.get(lam)
        if w is None:
            w = []
            for i in range(scheme.B):
                acc = 0
                for j, coef in enumerate(lam):
                    if coef:
                        acc = ext.add(acc, ext.scale(coef, gab.at(i, j)))
                w.append(acc)
            w = memo[lam] = tuple(w)
        out.append(w)
    return out


def verify_secrecy(
    scheme: SecureScheme, eve: EveModel, spans=None, vectors=None
) -> SecrecyCheck:
    """Exact rank verification that the eavesdropper learns nothing.

    Eve sees the b base-field coordinates of u . w for every observed
    vector w in W, where u = (secret || randomness) in ext^B and b is the
    extension degree.  Those coordinates are traces Tr(theta_t u . w)
    against the dual basis, and the trace form is non-degenerate, so their
    base-field span is {u -> Tr(u . v) : v in span_ext(W)} and

        H(observations) = b * rank_ext(W)            (in log-q symbols).

    The secret and the randomness are independent and uniform, so
    H(observations | secret) is b times the ext-rank of W restricted to the
    randomness positions secret_len..B-1, which gives

        I(secret; observations) = b * rank_ext(W) - b * rank_ext(W_rand),
        H(randomness | secret, observations) = b * random_len - b * rank_ext(W_rand).

    The pass condition is zero mutual information; coverage by the
    randomness (H(observations) <= H(randomness)) and a determined
    randomness are reported as diagnostics.

    spans maps each node of eve.F to its download_span and vectors each
    expanded cell row to its w(lam); both are built here when not given,
    and verify_secrecy_sweep shares them across its placements.
    """
    code = scheme.code
    validate_eve(code, eve)
    if spans is None:
        spans = download_spans(code, eve.F)
    ext = scheme.ext
    b = ext.degree
    if vectors is None:
        vectors = {}
    ws = _observed_vectors(scheme, observed_rows(code, eve, spans), vectors)
    s = scheme.secret_len
    h_e = b * entropy_symbols(observations(ext, scheme.B, [("w", w) for w in ws]))
    h_e_given_s = b * entropy_symbols(
        observations(ext, scheme.random_len, [("w", w[s:]) for w in ws])
    )
    h_r = b * scheme.random_len
    return SecrecyCheck(
        eve=eve,
        observed_rank=h_e,
        randomness_entropy=h_r,
        coverable=h_e <= h_r,
        randomness_determined=h_r == h_e_given_s,
        mutual_information=h_e - h_e_given_s,
    )


def verify_secrecy_sweep(scheme: SecureScheme):
    """verify_secrecy over every (E, F) placement at the scheme's (l1, l2).

    Each F node's download_span is built, and each distinct observed cell
    row expanded, once per sweep, as capacity_table does for its spans.
    """
    code = scheme.code
    spans = download_spans(code) if scheme.l2 else {}
    vectors = {}
    return [
        verify_secrecy(scheme, eve, spans, vectors)
        for eve in placements(code, scheme.l1, scheme.l2)
    ]
