"""The three-box achievable region in closed form, on plain floats.

v = (v_AB, v_BC, v_AC) is achievable iff

    |w1.v| + sqrt((w2.v)^2 + (w3.v)^2) <= 1,

with w1 = (1, 1, 1)/3, w2 = (2, -1, -1)/3 and w3 = (0, 1, -1)/sqrt(3).  This
module is the one place that writes down that W-frame (`frame_of_v`) and
the cone's gauge (`cone_norm`): the audit's margins, the ray extreme and
observables.w_frame all take them from here.  The linear family

    |v_AB+v_BC+v_AC| + |(2v_AB-v_BC-v_AC) cos(theta) + sqrt(3)(v_BC-v_AC) sin(theta)| <= 3

has that test as its supremum over theta.  Everything here uses `math`
only, so `statmon check` answers without importing numpy; monogamy rebinds
these names beside its batched kernels, which reuse the arithmetic below.
"""

from __future__ import annotations

import collections
import math

from .errors import CapacityError, ValidationError, as_count, as_real

MEMBERSHIP_TOL = 1e-9
THETA_GRID_DEFAULT = 720
THETA_GRID_MAX = 2**20  # the grid's documented range; the closed form costs the same for any grid
_SQRT3 = math.sqrt(3.0)

# Names of the states.named_state catalog, held here so that the CLI's
# parser offers them without loading states (and numpy).
NAMED_STATES = (
    "sym_plus",
    "antisym_minus",
    "eq5",
    "eq6",
    "phi_eq23",
    "nontransitive_3_5",
    "chi",
)


def _validate_v(v) -> tuple[float, float, float]:
    """v as three floats within [-1, 1] (to MEMBERSHIP_TOL): a sequence of
    three numbers or an array of shape (3,); anything else is refused."""
    if isinstance(v, (str, bytes)):  # iterating it would read "100" as (1, 0, 0)
        raise ValidationError(f"expected 3 pair expectations as numbers, got {v!r}")
    shape = getattr(v, "shape", None)
    if shape is not None and len(shape) != 1:  # iterating it would give rows, not entries
        raise ValidationError(f"expected 3 pair expectations, got shape {shape}")
    try:
        values = tuple(as_real(x, "pair expectation") for x in v)
    except (TypeError, ValueError):  # a ValidationError is a ValueError
        raise ValidationError(f"expected 3 pair expectations as numbers, got {v!r}") from None
    if len(values) != 3:
        raise ValidationError(f"expected 3 pair expectations, got shape ({len(values)},)")
    if not all(abs(x) <= 1.0 + MEMBERSHIP_TOL for x in values):  # NaN compares false
        raise ValidationError(f"entries of v must lie in [-1, 1], got {list(values)}")
    return values


def frame_of_v(ab, bc, ac):
    """W-frame coordinates (w1.v, w2.v, w3.v) from v's entries: floats, or
    equal-shape arrays holding one entry per v, by the same arithmetic, so
    a batch gives each v the bits it gets alone."""
    return (ab + bc + ac) / 3.0, (2.0 * ab - bc - ac) / 3.0, (bc - ac) / _SQRT3


def cone_norm(u1, u2, u3, sqrt=math.sqrt):
    """The double cone's gauge |u1| + sqrt(u2^2 + u3^2) of W-frame coordinates
    u_i = w_i.v: v is achievable iff it is at most 1.  Arrays take
    sqrt=np.sqrt, which rounds as math.sqrt does.  Coordinates of a v with
    |v| <= 1 are bounded, so the squares cannot overflow."""
    return abs(u1) + sqrt(u2 * u2 + u3 * u3)


def margin_of_w(u1, u2, u3, sqrt=math.sqrt):
    """Margin 1 - cone_norm(u1, u2, u3) of W-frame coordinates."""
    return 1.0 - cone_norm(u1, u2, u3, sqrt)


def check_sqrt(v) -> float:
    """Margin 1 - [|w1.v| + sqrt((w2.v)^2 + (w3.v)^2)]; >= 0 inside."""
    return margin_of_w(*frame_of_v(*_validate_v(v)))


def check_theta(v, theta: float) -> float:
    """Left-hand side |v_AB+v_BC+v_AC| + |(2v_AB-v_BC-v_AC)cos(theta)
    + sqrt(3)(v_BC-v_AC)sin(theta)|; membership requires <= 3."""
    ab, bc, ac = _validate_v(v)
    theta = as_real(theta, "theta")
    if not math.isfinite(theta):  # the form is 2pi-periodic: any finite angle is valid
        raise ValidationError(f"theta must be finite, got {theta}")
    return abs(ab + bc + ac) + abs((2.0 * ab - bc - ac) * math.cos(theta) + _SQRT3 * (bc - ac) * math.sin(theta))


def theta_margin_of_v(ab: float, bc: float, ac: float, grid: int) -> float:
    """min over theta_k = 2 pi k / grid, k < grid, of 3 - lhs(theta_k), in O(1).

    a cos(theta) + b sin(theta) = R cos(theta - alpha), with a = 2v_AB - v_BC
    - v_AC, b = sqrt(3)(v_BC - v_AC), R = |(a, b)| and alpha = atan2(b, a).
    |cos| has period pi, and modulo pi the grid angles are the multiples of
    h = pi/grid for an odd grid and of 2 pi/grid for an even one, so the
    grid's largest |R cos(theta_k - alpha)| is R cos(d), d the distance from
    alpha to the nearest multiple of h.
    """
    a, b = 2.0 * ab - bc - ac, _SQRT3 * (bc - ac)
    h = (math.pi if grid % 2 else 2.0 * math.pi) / grid
    alpha = math.atan2(b, a)
    d = abs(alpha - round(alpha / h) * h)
    return 3.0 - (abs(ab + bc + ac) + math.sqrt(a * a + b * b) * math.cos(d))


def theta_family_margin(v, grid: int = THETA_GRID_DEFAULT) -> float:
    """min over a theta grid of (3 - lhs); approximate with O(dtheta^2) error."""
    v = _validate_v(v)
    grid = as_count(grid, "theta grid")
    if grid < 1:
        raise ValidationError("theta grid must have at least one point")
    if grid > THETA_GRID_MAX:
        raise CapacityError(f"theta grid supports at most {THETA_GRID_MAX} points, got {grid}")
    return theta_margin_of_v(*v, grid)


class RegionCheck(collections.namedtuple("RegionCheck", "v theta_margin sqrt_margin inside")):
    """Result of both membership forms for one v-vector: the tuple (v,
    theta_margin, sqrt_margin, inside).  A named tuple, not a dataclass, so
    that `statmon check` does not import `dataclasses` (and `inspect`)."""

    __slots__ = ()

    @classmethod
    def evaluate(cls, v, theta_grid: int = THETA_GRID_DEFAULT) -> "RegionCheck":
        v = _validate_v(v)
        sqrt_margin = check_sqrt(v)
        return cls(
            v=v,
            theta_margin=theta_family_margin(v, theta_grid),
            sqrt_margin=sqrt_margin,
            inside=bool(sqrt_margin >= -MEMBERSHIP_TOL),
        )

    def to_jsonable(self) -> dict:
        return {
            "v": [float(x) for x in self.v],
            "theta_margin": float(self.theta_margin),
            "sqrt_margin": float(self.sqrt_margin),
            "inside": bool(self.inside),
        }
