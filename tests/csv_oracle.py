"""Reference for the CLI's CSV tables: the per-value writer that formats
one value at a time, and `direct`'s per-node polar_map rows.

The CLI formats each distinct value of a block of rows once; tests hold
its files to these byte for byte.
"""


def fmt(x):
    return f"{x:.17g}"


def write_csv(path, header_meta, names, rows):
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def polar_map_rows(pm):
    """(i, j, s, theta, re h, im h) at every max(1, n // 64)-th node per
    axis, i outer."""
    return [(i, j, float(pm.s[i]), float(pm.theta[j]),
             float(pm.h[i, j].real), float(pm.h[i, j].imag))
            for i in range(0, pm.ns, max(1, pm.ns // 64))
            for j in range(0, pm.ntheta, max(1, pm.ntheta // 64))]
