"""Radial weight functions on an interval [r, R].

Three concrete families are supported: constant weights, power weights
``s**p`` and tabulated weights with piecewise-linear interpolation.  All
weights must be strictly positive on their interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VALIDATION_GRID = 4096
MONOTONE_TOL = 1e-12


class WeightError(ValueError):
    """Invalid weight specification or evaluation outside [r, R]."""


@dataclass(frozen=True)
class Violation:
    where: float
    value: float
    reason: str


@dataclass(frozen=True)
class Weight:
    """Positive radial weight on [r, R].

    Use the ``constant``, ``power`` and ``tabulated`` constructors rather
    than instantiating directly.
    """

    kind: str
    r: float
    R: float
    value: float = 1.0
    exponent: float = 0.0
    abscissae: np.ndarray | None = field(default=None, repr=False)
    ordinates: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def constant(value, r, R):
        _check_interval(r, R)
        if value <= 0:
            raise WeightError(f"constant weight must be positive, got {value}")
        return Weight("constant", float(r), float(R), value=float(value))

    @staticmethod
    def power(exponent, r, R, value=1.0):
        """Weight value * s**exponent."""
        _check_interval(r, R)
        if value <= 0:
            raise WeightError(f"power weight prefactor must be positive, got {value}")
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
        _check_interval(r, R)
        at_r, at_R = np.isclose(s[0], r), np.isclose(s[-1], R)
        if not ((at_r or s[0] < r) and (at_R or R < s[-1])):
            raise WeightError(f"tabulated samples cover [{s[0]:g}, {s[-1]:g}], "
                              f"not [{r:g}, {R:g}]")
        if not (at_r and at_R):
            a, b = (s[0] if at_r else r), (s[-1] if at_R else R)
            cut = np.r_[a, s[(s > a) & (s < b)], b]
            s, lam = cut, np.interp(cut, s, lam)
        w = Weight("tabulated", r, R)
        object.__setattr__(w, "abscissae", s)
        object.__setattr__(w, "ordinates", lam)
        return w

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
        if self.kind == "constant":
            out = np.full_like(s_arr, self.value)
        elif self.kind == "power":
            out = self.value * s_arr ** self.exponent
        else:
            out = np.interp(s_arr, self.abscissae, self.ordinates)
        return out if out.ndim else float(out)

    def scale(self, c):
        """Return the weight c*lambda, c > 0 (exact, constructor level)."""
        if c <= 0:
            raise WeightError(f"scale factor must be positive, got {c}")
        if self.kind == "tabulated":
            return Weight.tabulated(self.abscissae, c * self.ordinates)
        w = Weight(self.kind, self.r, self.R, value=c * self.value,
                   exponent=self.exponent)
        return w

    def max_value(self):
        return float(np.max(self(self._grid())))

    def min_value(self):
        return float(np.min(self(self._grid())))

    def _grid(self):
        s = np.exp(np.linspace(np.log(self.r), np.log(self.R),
                               VALIDATION_GRID))
        s[0], s[-1] = self.r, self.R
        return s

    def validate(self):
        """Return None if the weight is admissible, else the first Violation."""
        if self.kind == "tabulated":
            # interpolated zero crossings live between samples of opposite sign
            lam = self.ordinates
            bad = np.nonzero(lam <= 0)[0]
            if bad.size:
                i = bad[0]
                return Violation(float(self.abscissae[i]), float(lam[i]),
                                 "non-positive sample")
        grid = self._grid()
        vals = np.asarray(self(grid))
        bad = np.nonzero(vals <= 0)[0]
        if bad.size:
            i = bad[0]
            return Violation(float(grid[i]), float(vals[i]), "non-positive value")
        return None

    def is_nondecreasing(self):
        if self.validate() is not None:
            raise WeightError("is_nondecreasing requires a valid weight")
        vals = np.asarray(self(self._grid()))
        running_max = np.maximum.accumulate(vals)
        return bool(np.all(vals >= running_max - MONOTONE_TOL))


def _check_interval(r, R):
    if not (0 < r < R):
        raise WeightError(f"need 0 < r < R, got r={r}, R={R}")


def weight_from_config(spec, r, R):
    """Build a Weight from the config-file dictionary form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise WeightError("weight spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    known = {"constant": {"kind", "value"},
             "power": {"kind", "exponent", "value"},
             "tabulated": {"kind", "samples"}}
    if kind not in known:
        raise WeightError(f"unknown weight kind: {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise WeightError(f"unknown weight keys: {sorted(extra)}")
    if kind == "constant":
        return Weight.constant(spec.get("value", 1.0), r, R)
    if kind == "power":
        return Weight.power(spec.get("exponent", 1.0), r, R,
                            value=spec.get("value", 1.0))
    samples = spec.get("samples")
    if not samples:
        raise WeightError("tabulated weight needs a 'samples' list")
    pts = np.asarray(samples, dtype=float)
    return Weight.tabulated(pts[:, 0], pts[:, 1], r=r, R=R)
