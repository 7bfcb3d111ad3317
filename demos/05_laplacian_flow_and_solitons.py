"""Laplacian flow: integration against closed-form solutions, solitons,
self-similarity, and the approach to blow-up.
"""

from fractions import Fraction as F

from g2lab import (
    G2Structure,
    algebraic_soliton_solve,
    ansatz_coefficients,
    catalog,
    gabk_solution,
    laplacian_flow,
    lauret_exponents,
    lauret_solution,
    self_similar_check,
)

# ---------------------------------------------------------------------------
# solitons along the one-parameter family: lambda = 8a^2 - 4a - 4
# ---------------------------------------------------------------------------
print("algebraic solitons on the one-parameter extensions:")
for a in (F(1, 4), F(1, 2), F(1), F(2)):
    entry = catalog.get("g_a", a=a)
    sol = algebraic_soliton_solve(G2Structure(entry.algebra, entry.phi))
    print("  a = %-4s lambda = %-5s %s" % (a, sol.lam, sol.character))

print("\nno algebraic soliton on the solvable three-parameter family:")
for (a, b, k) in ((1, 1, 0), (1, 2, 1), (2, 1, 3)):
    entry = catalog.get("g_abk", a=a, b=b, k=k)
    sol = algebraic_soliton_solve(G2Structure(entry.algebra, entry.phi))
    print("  (a,b,k) = (%s,%s,%s): feasible = %s, residual ratio %.3f"
          % (a, b, k, sol.feasible, sol.residual_ratio))

# ---------------------------------------------------------------------------
# integration vs the closed-form shrinking solution (a = 1/2)
# ---------------------------------------------------------------------------
data = lauret_exponents(F(1, 2))
print("\na = 1/2 exponents: lambda = %s, (q1, q2, q3) = (%s, %s, %s), "
      "maximal time %s" % (data.lam, data.q1, data.q2, data.q3, data.t_max))

entry = catalog.get("g_a", a=F(1, 2))
struct = G2Structure(entry.algebra, entry.phi)
traj = laplacian_flow(struct, 0.3, dt0=1e-3, tol=1e-9)
worst = max(float((s.phi - lauret_solution(F(1, 2), s.t)).max_abs())
            for s in traj.samples)
print("integrated to t = %.2f in %d steps (%d torsion evaluations, %d rejected); "
      "max deviation from the closed form: %.2e"
      % (traj.samples[-1].t, traj.stats.accepted, traj.stats.rhs_evals,
         traj.stats.rejected, worst))

sol = algebraic_soliton_solve(struct)
report = self_similar_check(traj, sol)
print("self-similarity verified: soliton residual %.2e, volume deviation %.2e"
      % (report.max_soliton_residual, report.max_volume_deviation))

# torsion grows like 1/A(t) toward the blow-up time 3/8
print("\n|tau|^2 along the flow (blow-up at t = 0.375):")
for s in traj.samples[:: max(1, len(traj.samples) // 6)]:
    print("  t = %-8.4f |tau|^2 = %9.4f   scal = %9.4f"
          % (s.t, s.tau_norm_sq, s.scal))

# ---------------------------------------------------------------------------
# the solvable family: ansatz coefficients track (C2^(-1/3), C2, 1)
# ---------------------------------------------------------------------------
entry = catalog.get("g_abk", a=1, b=1, k=0)
traj = laplacian_flow(G2Structure(entry.algebra, entry.phi), 0.3,
                      dt0=1e-3, tol=1e-9)
final = ansatz_coefficients(traj.samples[-1].phi)
c1, c2, c3 = gabk_solution(1, traj.samples[-1].t)
print("\nsolvable family at t = 0.3:")
print("  integrated  (C1, C2, C3) = (%.6f, %.6f, %.6f)"
      % (float(final.c[0]), float(final.c[1]), float(final.c[2])))
print("  closed form (C1, C2, C3) = (%.6f, %.6f, %.6f)" % (c1, c2, c3))
print("  closedness reduction C2 = C4 = ... = C7 holds:",
      final.closed_reduction)
