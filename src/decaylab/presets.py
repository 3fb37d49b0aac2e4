"""Shipped scenario presets.

The catalog maps preset names to config documents (the same INI schema that
`load_config` accepts).  A preset states only the keys whose values differ
from their row's default in `ScenarioConfig`, so each default is written in
one place.  A value that equals only a derived default (`t_window =
t_max/4`, T1's `gamma = 1`) is stated: it must hold when an edit changes
what the default derives from.  The identity-refinement triplet shares one
physical setup at h, h/2, h/4 (each member states its h) with the time step
tied to h, so defect ratios between consecutive members measure the
convergence order of the energy identity.

Notes baked into the numbers:

* t3-compact-1d runs at cfl = 1.0, where the 1D scheme is dispersion-free
  and the numerical support rides the exact lattice cone, so the hard
  support-cone check is enforced.  At cfl < 1 dispersion tails cross the
  1e-12 amplitude threshold, so the other compact presets only measure the
  overshoot.
* identity presets run at cfl = 0.2: the identity defect of the dissipation
  accounting is O(dt) and needs the smaller step to sit inside its tolerance.
* t1-honest-b-bounds keeps the admissible (astronomical) b: the log weights
  underflow flat, the bundle-boundedness checks carry the content, and no
  decay fit is attempted.  t1-log-desk uses the labeled practical-b override
  for an illustrative fit.
"""

from __future__ import annotations

from .scenarios import ScenarioConfig, load_config

__all__ = ["CATALOG", "names", "get", "load"]


CATALOG: dict[str, str] = {}


def _preset(name: str, text: str) -> None:
    CATALOG[name] = text.strip() + "\n"


_preset("t3-compact-1d", """
[scenario]
name = t3-compact-1d
theorem = T3
l = 0.5

[grid]
alpha = 0.5

[data]
center = 1.25
radius = 0.7
r_support = 2.0

[time]
t_max = 500
cfl = 1.0
t_window = 50
""")

_preset("t3-compact-2d", """
[scenario]
name = t3-compact-2d
theorem = T3
dim = 2
l = 2.0
damping_kind = annulus_plus_exterior

[grid]
rho = 1.0
h = 0.1

[data]
center_x = 3.5
radius = 1.0
r_support = 4.5

[time]
t_max = 16
sample_stride = 5
t_window = 4
""")

_preset("t2-poly-1d", """
[scenario]
name = t2-poly-1d
theorem = T2

[grid]
x_max = 100

[data]
kind = weighted

[time]
t_max = 150
cfl = 0.45
t_window = 5
""")

_preset("t1-log-desk", """
[scenario]
name = t1-log-desk
theorem = T1
delta0 = 0.1
gamma = 1.0

[grid]
x_max = 100

[data]
kind = weighted

[time]
t_max = 150
t_window = 10
""")

_preset("t1-honest-b-bounds", """
[scenario]
name = t1-honest-b-bounds
theorem = T1
delta0 = 0.1
gamma = 1.0

[grid]
x_max = 100

[data]
kind = weighted

[time]
t_max = 150
t_window = 10

[weights]
use_practical_b = false
""")

_IDENTITY_TEMPLATE = """
[scenario]
name = {name}
theorem = identity_only
epsilon0 = 1.0
damping_kind = constant

[grid]
x_max = 60
h = {h}

[data]
radius = 0.75
r_support = 2.0

[time]
cfl = 0.2
t_window = 5
"""

for _suffix, _h in (("", 0.05), ("-h2", 0.025), ("-h4", 0.0125)):
    _preset("identity-refinement" + _suffix,
            _IDENTITY_TEMPLATE.format(name="identity-refinement" + _suffix, h=_h))

_preset("weight-suite", """
[scenario]
name = weight-suite
theorem = weight_suite
seed = 20240809
""")


def names() -> list[str]:
    return sorted(CATALOG)


def get(name: str) -> str:
    if name not in CATALOG:
        raise KeyError(f"unknown preset {name!r}; available: {names()}")
    return CATALOG[name]


def load(name: str) -> ScenarioConfig:
    return load_config(get(name))
