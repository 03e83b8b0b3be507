"""The full parameter ladder of the iteration and its admissibility checks.

Frequencies lambda_q = ceil(a^(b^q)) with amplitudes delta_q, space/time
mollification lengths ell_q and iota_q, and the gluing scale tau_q.  Toy
runs may override individual frequencies; inadmissible ladders are returned
with their violated constraints listed, never rejected.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .grids import is_integer

# log of the largest float: lambda_q = a^(b^q) overflows beyond it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _real(x) -> float:
    """x as a float: +-inf for an integer beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass
class ParameterLadder:
    a: float
    b: float
    alpha: float
    beta: float
    L: float
    mode: str = "onsager"            # or "cauchy"
    q_max: int = 4
    beta_bar: float | None = None    # cauchy: target regularity of the data
    K: float = 1.0                   # cauchy: energy-pumping multiplier
    N_init: float = 1.0              # cauchy: C^beta_bar bound of the data
    overrides: dict = field(default_factory=dict)
    lam: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)
    ell: np.ndarray = field(init=False)
    iota: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)
    varsigma: np.ndarray = field(init=False)
    admissible: bool = field(init=False)
    violations: list = field(init=False)

    # an overflowing lambda_q is stored as inf and reported as a violation;
    # the derived sequences then hold inf or nan, without float warnings
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __post_init__(self):
        if self.mode not in ("onsager", "cauchy"):
            raise ValueError("mode must be 'onsager' or 'cauchy'")
        if self.mode == "cauchy" and self.beta_bar is None:
            raise ValueError("cauchy mode needs beta_bar")
        if not is_integer(self.q_max) or self.q_max < 0:
            raise ValueError(f"q_max={self.q_max!r} is not an integer >= 0")
        n = self.q_max + 3  # keep delta_{q+2} available at q_max
        a = _real(self.a) if self.a > 0 else math.nan
        b, al, be, L = map(_real, (self.b, self.alpha, self.beta, self.L))
        lam = np.empty(n)
        overflow = []
        for q in range(n):
            log_lam = b ** q * math.log(a) if a > 1 else 0.0
            if q in self.overrides:
                lam[q] = self.overrides[q]
            elif log_lam > _LOG_FLOAT_MAX:
                lam[q] = np.inf
                overflow.append(f"(ladder) lambda_{q} = a^(b^{q}) overflows "
                                f"float: log lambda_{q} = {log_lam:.4g} > "
                                f"{_LOG_FLOAT_MAX:.4g}")
            else:
                lam[q] = float(np.ceil(a ** (b ** q)))
        delta = np.empty(n)
        delta[0] = 16.0 * lam[1] ** (3 * al)
        delta[1] = 4.0 * lam[1] ** (3 * al)
        for q in range(2, n):
            delta[q] = (lam[2] ** (2 * be) * lam[q] ** (-2 * be)
                        * lam[1] ** (3 * al))
        ell = np.empty(n - 1)
        for q in range(n - 1):
            ell[q] = np.sqrt(delta[q + 1] / delta[q]) / lam[q] ** (1 + 6 * al)
        iota = lam ** (-4.0 / 3.0)
        amp = L if self.mode == "onsager" else self.M_L
        tau = 1.0 / (amp * lam ** (1 + 6 * al) * np.sqrt(delta))
        varsigma = delta.copy()
        if n > 2:
            varsigma[2] = self.K * delta[2]
        self.lam, self.delta, self.ell = lam, delta, ell
        self.iota, self.tau, self.varsigma = iota, tau, varsigma
        self.violations = overflow[:1] + self._check_constraints(
            a, b, al, be, L)
        self.admissible = not self.violations

    @property
    def M_L(self) -> float:
        """Cauchy-mode amplitude constant (L + N)^2."""
        return (_real(self.L) + self.N_init) ** 2

    def _check_constraints(self, a, b, al, be, L) -> list:
        out = [f"(range) {name}={value} is not finite" for name, value
               in (("b", b), ("alpha", al), ("beta", be))
               if not -np.inf < value < np.inf]
        if not a < np.inf:
            out.insert(0, f"(range) a={self.a} is not a positive finite float")
        if not 0 < L < np.inf:
            out.append(f"(range) L={L} is not positive and finite")
        if not (0 < be < 1 / 3):
            out.append("(range) beta outside (0, 1/3)")
        if not (1 < b < 2):
            out.append("(range) b outside (1, 2)")
        if self.mode == "onsager":
            b_cap = min((1 - 3 * be) / (2 * be), np.sqrt(1 / (3 * be)) - 1,
                        1 / (6 * be) - 0.5, 1.0)
            if not (0 < b - 1 < b_cap):
                out.append(f"(choice:b) b-1={b - 1:.4g} not in (0, {b_cap:.4g})")
            a_cap = min((b - 1) * (1 - 2 * b * be - be), be * (b - 1),
                        2 / 3 - 2 * b**2 * be, 1 / 3 + be - 2 * b * be)
            if not (20 * b * al < a_cap):
                out.append(f"(def alpha) 20*b*alpha={20 * b * al:.4g} >= "
                           f"{a_cap:.4g}")
        else:
            bb = self.beta_bar
            if not (0 < be < bb < 1 / 3):
                out.append("(range) need 0 < beta < beta_bar < 1/3")
            b_cap = min((1 - 3 * be) / (2 * be), np.sqrt(1 / (3 * be)) - 1,
                        (bb - be) / 3, bb / be - 1, 1 / 9)
            if not (0 < b - 1 < b_cap):
                out.append(f"(choice:b:new) b-1={b - 1:.4g} not in "
                           f"(0, {b_cap:.4g})")
            a_cap = min((b - 1) * (1 - 2 * b * be - be), be * (b - 1),
                        2 / 3 - 2 * b**2 * be, bb - b * be)
            if not (20 * b * al < a_cap):
                out.append(f"(parameter:alpha1:new) 20*b*alpha="
                           f"{20 * b * al:.4g} >= {a_cap:.4g}")
        if not (2.0 <= a ** ((b - 1) * be)):
            out.append(f"(choice:a) a^((b-1)beta)={a ** ((b - 1) * be):.4g} < 2")
        if not (a ** ((b - 1) * be) <= a ** ((b - 1) * (1 - be))):
            out.append("(choice:a) a^((b-1)beta) > a^((b-1)(1-beta))")
        # derived-sequence shape checks
        for q in range(len(self.ell) - 1):
            lo = 0.5 * self.lam[q] ** (-1 - (b - 1) * be - 6 * al)
            hi = self.lam[q] ** (-1 - 6 * al)
            if not (lo < self.ell[q] < hi * (1 + 1e-12)):
                out.append(f"(def l) ell_{q}={self.ell[q]:.4g} outside "
                           f"({lo:.4g}, {hi:.4g})")
            if not (self.lam[q] ** -1.5 <= self.ell[q] <= self.lam[q] ** -1.0
                    * (1 + 1e-12)):
                out.append(f"(ell:lambdaq) ell_{q} outside rough bounds")
        if np.any(np.diff(self.lam) <= 0):
            out.append("(ladder) lambda_q not strictly increasing")
        if np.any(np.diff(self.delta[1:]) >= 0):
            out.append("(ladder) delta_q not strictly decreasing for q >= 1")
        if np.any(np.diff(self.ell) >= 0):
            out.append("(ladder) ell_q not strictly decreasing")
        return out


def ladder(a: float, b: float, alpha: float, beta: float, L: float,
           mode: str = "onsager", q_max: int = 4, **kw) -> ParameterLadder:
    """Build the ladder; inadmissible parameter choices come back with
    ``admissible=False`` and the violated constraints listed."""
    return ParameterLadder(a=a, b=b, alpha=alpha, beta=beta, L=L, mode=mode,
                           q_max=q_max, **kw)
