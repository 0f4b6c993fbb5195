"""Rank-metric precoding that makes the stable code leak nothing.

A capacity-sized secret is padded with uniform randomness and mixed through
a Gabidulin (Moore-matrix) generator over the extension field F_{q^B}; the
mixed vector becomes the B data cells of the stable code, each cell one
extension symbol.  Storage-code coefficients live in the base field F_q and
act on cells coordinate-wise, so every symbol an eavesdropper sees is an
ext-linear functional of the secret-plus-randomness vector.  Secrecy is then
an exact rank fact checked per instance, by two ranks over the extension
field: the observed functionals must have no component outside the
randomness positions (zero mutual information with the secret).

The B cells are one generation of the data matrix, stored and recovered
through the tower code's encode_batch / reconstruct_batch, like files.

The tower F_{(2^4)^6} is fixed by the published reduction polynomial
y^6 + y^3 + (x^3 + 1) over GF(16), with GF(16) = GF(2)[x]/(x^4 + x + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

# entropy_symbols is unused here, but perfbench's tracer rebinds it in secure by name
from .entropy import RowSpace, entropy_symbols  # noqa: F401
from .errors import (
    DuplicateNode,
    FieldKindUnsupported,
    LengthMismatch,
    NotCoveredRegime,
)
from .eve import (
    NOT_COVERED,
    EveModel,
    PlacementRows,
    placements,
    predicted_secrecy_capacity,
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


def _expand(scheme: SecureScheme, lam):
    """w(lam) = Gab @ lam^T over ext for an observed cell row lam, and w(lam)[secret_len:].

    A cell row lam observes sum_j lam_j c_j with c = u @ Gab, which equals
    u . w(lam): one extension symbol, linear in u over ext.
    """
    ext = scheme.ext
    gab = scheme.gabidulin
    w = []
    for i in range(scheme.B):
        acc = 0
        for j, coef in enumerate(lam):
            if coef:
                acc = ext.add(acc, ext.scale(coef, gab.at(i, j)))
        w.append(acc)
    return tuple(w), tuple(w[scheme.secret_len :])


def _observed_rows(scheme: SecureScheme) -> PlacementRows:
    """Each observed cell row's w(lam) in two RowSpaces over ext: over all
    B positions, and over the randomness positions secret_len..B-1."""
    spaces = (RowSpace(scheme.ext, scheme.B), RowSpace(scheme.ext, scheme.random_len))
    return PlacementRows(scheme.code, spaces, lambda lam: _expand(scheme, lam))


def verify_secrecy(scheme: SecureScheme, eve: EveModel, observed=None) -> SecrecyCheck:
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

    Both ranks come from observed (what _observed_rows returns), made here
    when not given; verify_secrecy_sweep shares one across its placements.
    """
    b = scheme.ext.degree
    h_e, h_e_given_s = (b * r for r in (observed or _observed_rows(scheme)).ranks(eve))
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

    Every placement ranks in one _observed_rows, so each node's view is
    built, and each distinct observed cell row expanded, once per sweep.
    """
    observed = _observed_rows(scheme)
    return [
        verify_secrecy(scheme, eve, observed)
        for eve in placements(scheme.code, scheme.l1, scheme.l2)
    ]
