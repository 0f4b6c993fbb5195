"""Rank-metric precoding that makes the stable code leak nothing.

A capacity-sized secret is padded with uniform randomness and mixed through
a Gabidulin (Moore-matrix) generator over the extension field F_{q^B}; the
mixed vector becomes the B data cells of the stable code, each cell one
extension symbol.  Storage-code coefficients live in the base field F_q and
act on cells coordinate-wise, so every symbol an eavesdropper sees is an
ext-linear functional of the secret-plus-randomness vector.  Secrecy is then
an exact rank fact checked per instance, by two ranks over the extension
field, both read off one echelon basis of the observed functionals: they
must have no component outside the randomness positions (zero mutual
information with the secret).

The B cells are one generation of the data matrix, stored and recovered
through the tower code's encode_batch / reconstruct_batch, like files.
That code (SecureScheme.code_ext) is built on first use, so a secrecy
check, which ranks over the symbol-field code alone, never builds it.

The tower is field_create(FieldSpec.tower(symbol field, B)): on S1,
F_{(2^4)^6}, fixed by the published reduction polynomial y^6 + y^3 +
(x^3 + 1) over GF(16), with GF(16) = GF(2)[x]/(x^4 + x + 1) (see
field.PUBLISHED_TOWERS).  field_create keeps the tower for the process,
and the Moore generator is built once per tower, so a process that runs
several commands builds, and tests for irreducibility and independence,
each only once, and the tower's kept ladders serve every command.

Eve's observed rows are expanded on the generator's columns, packed once
per scheme in kernels.pack's layout (randomness positions first): a row
is one translate per nonzero coefficient (ExtensionField.combine).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import kernels

# entropy_symbols is unused here, but perfbench's tracer rebinds it in secure by name
from .entropy import RowSpace, entropy_symbols  # noqa: F401
from .errors import FieldKindUnsupported, LengthMismatch, NotCoveredRegime
from .eve import (
    NOT_COVERED,
    EveModel,
    PlacementRows,
    placements,
    predicted_secrecy_capacity,
)
from .field import ExtensionField, FieldSpec, field_create

# the table lives in field; this re-export exists only for perfbench's provenance
from .field import PUBLISHED_TOWERS  # noqa: F401
from .matrix import Mat, moore_matrix
from .stable import CodeParams, StableCode


@dataclass(frozen=True)
class SecureScheme:
    code: StableCode  # the symbol-field code (functional/analysis layer)
    ext: ExtensionField
    gabidulin: Mat  # B x B Moore generator over ext
    secret_len: int
    random_len: int
    l1: int
    l2: int

    @property
    def B(self):
        return self.code.params.B

    @cached_property
    def code_ext(self) -> StableCode:
        """The same code lifted to the extension field (data layer), built on first use."""
        p = self.code.params
        ext_params = CodeParams.mscr(n=p.n, k=p.k, d=p.d, t=p.t, q=self.ext.order, beta=p.beta)
        return StableCode.create(ext_params, self.ext)

    @cached_property
    def columns(self) -> tuple[bytes, ...]:
        """The generator's columns, randomness positions first, each packed as bytes.

        Column j holds Gab[i][j] for i = secret_len..B-1, then 0..secret_len-1,
        in kernels.pack's layout, so _expand combines them into a packed row.
        """
        order = list(range(self.secret_len, self.B)) + list(range(self.secret_len))
        size = self.B * self.ext.nbytes
        gab = self.gabidulin
        return tuple(
            kernels.pack(self.ext, [gab.at(i, j) for i in order]).to_bytes(size, "big")
            for j in range(self.B)
        )


@lru_cache(maxsize=None)
def _gabidulin(ext: ExtensionField) -> Mat:
    """The B x B Moore generator on the tower's coordinate basis, built once per tower."""
    b = ext.degree
    basis = [ext.from_coords([1 if s == i else 0 for s in range(b)]) for i in range(b)]
    return moore_matrix(ext, basis, b, ext.base.order)


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
    ext = field_create(FieldSpec.tower(code.field.spec, p.B))
    return SecureScheme(
        code=code,
        ext=ext,
        gabidulin=_gabidulin(ext),
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
    """Full pipeline: mix, then encode the cells into node -> extension-symbol payload."""
    return scheme.code_ext.encode_batch(precode(scheme, secret, randomness))


def decode_secret(scheme: SecureScheme, shards):
    """Reconstruct from the payloads (node -> symbols) of any k nodes and unmix.

    The randomness is discarded.
    """
    cells = scheme.code_ext.reconstruct_batch(shards)
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
    """w(lam) = Gab @ lam^T over ext for an observed cell row lam, randomness positions first.

    A cell row lam observes sum_j lam_j c_j with c = u @ Gab, which equals
    u . w(lam): one extension symbol, linear in u over ext.  The row is
    w[secret_len:] + w[:secret_len], so W cut to the randomness positions
    is W cut to its first random_len columns.  w(lam) is sum_j lam_j times
    Gab's column j, so it is the packed columns (SecureScheme.columns)
    combined by lam, unpacked to the tuple RowSpace.intern takes.
    """
    return kernels.unpack(scheme.ext, scheme.ext.combine(lam, scheme.columns), scheme.B)


def _observed_rows(scheme: SecureScheme) -> PlacementRows:
    """Each observed cell row's w(lam), randomness positions first, in one RowSpace over ext."""
    space = RowSpace(scheme.ext, scheme.B)
    return PlacementRows(scheme.code, space, lambda lam: _expand(scheme, lam))


def verify_secrecy(scheme: SecureScheme, eve: EveModel, observed=None) -> SecrecyCheck:
    """Exact rank verification that the eavesdropper learns nothing.

    Eve sees the b base-field coordinates of u . w for every observed
    vector w in W, where u = (secret || randomness) in ext^B and b is the
    extension degree.  Those coordinates are traces Tr(theta_t u . w)
    against the dual basis, and the trace form is non-degenerate, so their
    base-field span is {u -> Tr(u . v) : v in span_ext(W)} and

        H(observations) = b * rank_ext(W)            (in log-q symbols).

    The secret and the randomness are independent and uniform, so
    H(observations | secret) is b times the ext-rank of W_rand, W cut to
    the randomness positions secret_len..B-1, which gives

        I(secret; observations) = b * rank_ext(W) - b * rank_ext(W_rand),
        H(randomness | secret, observations) = b * random_len - b * rank_ext(W_rand).

    Both ranks come from one echelon basis of W, whose rows hold the
    randomness positions first: rank_ext(W) is its length, and
    rank_ext(W_rand) is the number of its rows that lead in the first
    random_len columns (kernels.leading_in).  Those rows stay independent
    when cut to the randomness positions, and every other row cuts to zero.

    The pass condition is zero mutual information; coverage by the
    randomness (H(observations) <= H(randomness)) and a determined
    randomness are reported as diagnostics.

    The basis comes from observed (what _observed_rows returns), made here
    when not given; verify_secrecy_sweep shares one across its placements.
    """
    basis = (observed or _observed_rows(scheme)).basis(eve)
    b = scheme.ext.degree
    h_e = b * len(basis)
    h_e_given_s = b * kernels.leading_in(basis, scheme.B, scheme.random_len, scheme.ext)
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
    built, each distinct observed cell row expanded, and each F's basis
    eliminated, once per sweep.
    """
    observed = _observed_rows(scheme)
    return [
        verify_secrecy(scheme, eve, observed)
        for eve in placements(scheme.code, scheme.l1, scheme.l2)
    ]
