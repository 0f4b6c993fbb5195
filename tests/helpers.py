"""Shared test oracles, independent of the library's elimination path."""

import itertools


def det_oracle(field, mat):
    """Determinant by permutation expansion."""
    n = mat.nrows
    assert mat.ncols == n
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1
        for i in range(n):
            term = field.mul(term, mat.at(i, perm[i]))
        if inversions % 2:
            term = field.neg(term)
        total = field.add(total, term)
    return total


def bytes_to_symbols_oracle(data, q):
    """s-bit chunks of data through one big integer (quadratic; reference only)."""
    s = q.bit_length() - 1
    acc = int.from_bytes(data, "little")
    mask = (1 << s) - 1
    return [(acc >> shift) & mask for shift in range(0, len(data) * 8, s)]


def symbols_to_bytes_oracle(symbols, q, nbytes):
    """Inverse of bytes_to_symbols_oracle through one big integer."""
    s = q.bit_length() - 1
    acc = 0
    for i, v in enumerate(symbols):
        acc |= v << (i * s)
    acc &= (1 << (nbytes * 8)) - 1
    return acc.to_bytes(nbytes, "little")


def _coordinate_rows_oracle(scheme, cell_rows):
    """Expand cell-functionals (over F_q) to rows over the u-coordinates.

    A cell row lam observes sum_j lam_j c_j with c = u @ Gab, which equals
    u . (Gab @ lam^T).  Splitting each extension symbol u_i into B base
    coordinates turns one observed symbol into B base-field rows of length
    B * B.
    """
    ext = scheme.ext
    b = scheme.B
    basis = [ext.from_coords([1 if s == i else 0 for s in range(b)]) for i in range(b)]
    out = []
    for lam in cell_rows:
        w = [0] * b
        for i in range(b):
            acc = 0
            for j, coef in enumerate(lam):
                if coef:
                    acc = ext.add(acc, ext.scale(coef, scheme.gabidulin.at(i, j)))
            w[i] = acc
        # sigma = sum_i u_i w_i; coordinate t of sigma is linear in u_{i,s}
        cols = {}
        for i in range(b):
            if not w[i]:
                continue
            for s in range(b):
                prod = ext.mul(basis[s], w[i])
                for t_out, coef in enumerate(ext.coords(prod)):
                    if coef:
                        cols.setdefault(t_out, {})[(i, s)] = coef
        for t_out in range(b):
            row = [0] * (b * b)
            for (i, s), coef in cols.get(t_out, {}).items():
                row[i * b + s] = coef
            out.append(tuple(row))
    return out


def _selector_rows_oracle(scheme, start, stop):
    b = scheme.B
    rows = []
    for i in range(start, stop):
        for s in range(b):
            row = [0] * (b * b)
            row[i * b + s] = 1
            rows.append((f"u_{i}[{s}]", tuple(row)))
    return rows


def secrecy_oracle(scheme, eve):
    """The five SecrecyCheck fields by stacked base-field eliminations.

    Every observed extension symbol becomes B base-field rows over the B * B
    coordinates of (secret || randomness); secret and randomness enter as
    unit selector rows, and each field is a rank identity on the stack.
    """
    from coopstore.entropy import (
        conditional_entropy,
        entropy_symbols,
        mutual_information,
        observations,
    )
    from coopstore.eve import leakage_observations

    base = scheme.code.field
    b = scheme.B
    cell_obs = leakage_observations(scheme.code, eve)
    coord_rows = _coordinate_rows_oracle(scheme, cell_obs.unique_rows())
    e_obs = observations(base, b * b, [(f"e[{i}]", r) for i, r in enumerate(coord_rows)])
    s_obs = observations(base, b * b, _selector_rows_oracle(scheme, 0, scheme.secret_len))
    r_obs = observations(base, b * b, _selector_rows_oracle(scheme, scheme.secret_len, b))
    h_e = entropy_symbols(e_obs)
    h_r = entropy_symbols(r_obs)
    return {
        "observed_rank": h_e,
        "randomness_entropy": h_r,
        "coverable": h_e <= h_r,
        "randomness_determined": conditional_entropy(r_obs, s_obs.concat(e_obs)) == 0,
        "mutual_information": mutual_information(s_obs, e_obs),
    }
