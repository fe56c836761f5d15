"""Radial weight functions on an interval [r, R].

Three concrete families are supported: constant weights, power weights
``s**p`` and tabulated weights with piecewise-linear interpolation.  A
weight is positive and finite on its interval by construction: the
constructor runs `Weight.validate`, which raises `WeightError` otherwise,
so no caller checks again.  Positivity, finiteness and monotonicity are
decided exactly on a few knots (`Weight._knots`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MONOTONE_TOL = 1e-12


class WeightError(ValueError):
    """Invalid weight specification or evaluation outside [r, R]."""


@dataclass(frozen=True)
class Weight:
    """Positive radial weight on [r, R].

    Use the ``constant``, ``power`` and ``tabulated`` constructors rather
    than instantiating directly.  Construction raises `WeightError` unless
    0 < r < R < inf and the weight is positive and finite on [r, R].
    """

    kind: str
    r: float
    R: float
    value: float = 1.0
    exponent: float = 0.0
    abscissae: np.ndarray | None = field(default=None, repr=False)
    ordinates: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (0 < self.r < self.R < np.inf):
            raise WeightError(
                f"need 0 < r < R < inf, got r={self.r}, R={self.R}")
        self.validate()

    @staticmethod
    def constant(value, r, R):
        return Weight("constant", float(r), float(R), value=float(value))

    @staticmethod
    def power(exponent, r, R, value=1.0):
        """Weight value * s**exponent."""
        return Weight("power", float(r), float(R), value=float(value),
                      exponent=float(exponent))

    @staticmethod
    def tabulated(abscissae, ordinates, r=None, R=None):
        """Samples read on [r, R] (default: their own span).  An end inside
        the sampled span gets the interpolated value there."""
        s = np.asarray(abscissae, dtype=float)
        lam = np.asarray(ordinates, dtype=float)
        if s.ndim != 1 or s.shape != lam.shape or s.size < 2:
            raise WeightError("tabulated weight needs matching 1-d arrays, length >= 2")
        if np.any(np.diff(s) <= 0):
            raise WeightError("tabulated abscissae must be strictly increasing")
        r = s[0] if r is None else float(r)
        R = s[-1] if R is None else float(R)
        at_r, at_R = np.isclose(s[0], r), np.isclose(s[-1], R)
        if not ((at_r or s[0] < r) and (at_R or R < s[-1])):
            raise WeightError(f"tabulated samples cover [{s[0]:g}, {s[-1]:g}], "
                              f"not [{r:g}, {R:g}]")
        if not (at_r and at_R):
            a, b = (s[0] if at_r else r), (s[-1] if at_R else R)
            cut = np.r_[a, s[(s > a) & (s < b)], b]
            s, lam = cut, np.interp(cut, s, lam)
        return Weight("tabulated", r, R, abscissae=s, ordinates=lam)

    @staticmethod
    def from_callable(f, r, R, samples=4097):
        """Tabulate a callable on a log-uniform grid (piecewise linear)."""
        s = np.exp(np.linspace(np.log(r), np.log(R), samples))
        s[0], s[-1] = r, R
        return Weight.tabulated(s, np.asarray([f(x) for x in s], dtype=float))

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        eps = 1e-12 * (self.R - self.r)
        if np.any(s_arr < self.r - eps) or np.any(s_arr > self.R + eps):
            raise WeightError(
                f"evaluation outside [{self.r}, {self.R}]: s={s}")
        out = self._values(s_arr)
        return out if out.ndim else float(out)

    def _values(self, s):
        """The weight at the radii s (an array), unchecked against [r, R]."""
        if self.kind == "constant":
            return np.full_like(s, self.value)
        if self.kind == "power":
            return self.value * s ** self.exponent
        return np.interp(s, self.abscissae, self.ordinates)

    def scale(self, c):
        """Return the weight c*lambda, c > 0 (exact, constructor level)."""
        if self.kind == "tabulated":
            return Weight.tabulated(self.abscissae, c * self.ordinates)
        return Weight(self.kind, self.r, self.R, value=c * self.value,
                      exponent=self.exponent)

    def _knots(self):
        """(s, lambda) on the radii that decide positivity, finiteness and
        monotonicity on [r, R]: the samples kept there (a linear
        interpolant has its extremes and its drops at its knots), or the
        two ends of a constant or power weight (value * s**p is monotone)."""
        if self.kind == "tabulated":
            return self.abscissae, self.ordinates
        s = np.array([self.r, self.R])
        with np.errstate(over="ignore"):    # validate rejects the inf
            return s, self._values(s)

    def validate(self):
        """Raise `WeightError` unless the weight is positive and finite on
        [r, R].  Exact on `_knots`; NaN is not positive."""
        s, lam = self._knots()
        if not (lam.min() > 0 and lam.max() < np.inf):    # also when NaN
            i = np.flatnonzero(~((lam > 0) & (lam < np.inf)))[0]
            need = "finite" if lam[i] == np.inf else "positive"
            raise WeightError(f"{self.kind} weight must be {need} on "
                              f"[{self.r:g}, {self.R:g}]: non-{need} value "
                              f"{lam[i]:g} at s = {s[i]:g}")

    def is_nondecreasing(self):
        """Whether lambda stays within MONOTONE_TOL of its running maximum
        on [r, R].  Exact on `_knots`."""
        lam = self._knots()[1]
        return bool(np.all(lam >= np.maximum.accumulate(lam) - MONOTONE_TOL))


def _is_finite_number(x):
    """Whether x is a finite int or float (a bool is not a number)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and bool(np.isfinite(x))


def weight_from_config(spec, r, R):
    """Build a Weight from the config-file dictionary form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise WeightError("weight spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    known = {"constant": {"kind", "value"},
             "power": {"kind", "exponent", "value"},
             "tabulated": {"kind", "samples"}}
    if not isinstance(kind, str) or kind not in known:
        raise WeightError(f"weight.kind must be one of {sorted(known)}, "
                          f"got {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise WeightError(f"unknown weight keys: {sorted(extra)}")
    for key in sorted(known[kind] & {"value", "exponent"}):
        if not _is_finite_number(spec.get(key, 1.0)):
            raise WeightError(f"weight.{key} must be a finite number, "
                              f"got {spec[key]!r}")
    if kind == "constant":
        return Weight.constant(spec.get("value", 1.0), r, R)
    if kind == "power":
        return Weight.power(spec.get("exponent", 1.0), r, R,
                            value=spec.get("value", 1.0))
    try:
        pts = np.asarray(spec.get("samples"), dtype=float)
    except (TypeError, ValueError):
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        raise WeightError("weight.samples must be a list of finite "
                          "[s, lambda] pairs")
    return Weight.tabulated(pts[:, 0], pts[:, 1], r=r, R=R)
