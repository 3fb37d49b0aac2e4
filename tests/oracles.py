"""Oracles for the solver tests: a fully implicit midpoint integrator.

`reference_solve` cross-validates the main stepper (`decaylab.solver.run`)
on small instances: its energy curve and its trajectories.
"""

from dataclasses import dataclass

import numpy as np

from decaylab.grids import DampingProfile, ExteriorGrid
from decaylab.solver import SolverParams, WaveState, edge_form, laplacian


@dataclass
class ReferenceResult:
    ts: np.ndarray
    E: np.ndarray
    final_state: WaveState
    max_fixed_point_iters: int


# fixed-point iteration of `reference_solve`: tolerance and iteration cap
_FP_TOL = 1e-12
_FP_MAX_ITER = 200


def reference_solve(grid: ExteriorGrid, damping: DampingProfile,
                    initial: WaveState, params_fine: SolverParams,
                    sample_stride: int = 1) -> ReferenceResult:
    """Implicit midpoint with fixed-point iteration on the damping.

    Oracle-grade but small-instance only (<= 10^4 nodes).  Samples the plain
    discrete energy every `sample_stride` steps so curves can be compared
    against the main stepper at shared times.
    """
    if grid.fluid.size > 10_000:
        raise ValueError("reference integrator is restricted to <= 10^4 nodes")
    u, v = (grid.clamp_dirichlet(x.copy()) for x in (initial.u, initial.v))
    dt, r, a = params_fine.dt, params_fine.r, damping.values
    n_steps = int(round(params_fine.T_max / dt))

    def plain_energy(st):
        return (0.5 * grid.cell_volume * float(np.sum(st.v * st.v))
                + 0.5 * edge_form(grid, st.u, st.u))

    ts = [0.0]
    Es = [plain_energy(WaveState(u, v))]
    worst_iters = 0
    for n in range(1, n_steps + 1):
        um, vm = u.copy(), v.copy()
        for it in range(1, _FP_MAX_ITER + 1):
            um_next = u + 0.5 * dt * vm
            vm_next = v + 0.5 * dt * (laplacian(grid, um)
                                      - a * np.abs(vm) ** (r - 1.0) * vm)
            grid.clamp_dirichlet(um_next)
            grid.clamp_dirichlet(vm_next)
            delta = max(float(np.max(np.abs(um_next - um))),
                        float(np.max(np.abs(vm_next - vm))))
            um, vm = um_next, vm_next
            if delta <= _FP_TOL:
                break
        else:
            raise RuntimeError(
                f"midpoint fixed-point failed to converge in {_FP_MAX_ITER} "
                f"iterations at step {n}")
        worst_iters = max(worst_iters, it)
        u = grid.clamp_dirichlet(2.0 * um - u)
        v = grid.clamp_dirichlet(2.0 * vm - v)
        if n % sample_stride == 0:
            ts.append(n * dt)
            Es.append(plain_energy(WaveState(u, v, n * dt)))
    return ReferenceResult(ts=np.asarray(ts), E=np.asarray(Es),
                           final_state=WaveState(u, v, n_steps * dt),
                           max_fixed_point_iters=worst_iters)
