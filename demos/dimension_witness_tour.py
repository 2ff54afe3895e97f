"""Walk through a dimension-witness argument end to end.

The bundled expression E lives on a scenario where Alice has one binary and
one ternary setting and Bob has three binary settings.  We compute its exact
classical bound, then lower-bound its quantum value with two-qubit and
two-qutrit models; the gap between those two searches is what makes E a
witness: correlations beating the qubit value need at least qutrits.
"""

import math

from dimwit import SeesawConfig, catalog, expression_E, local_bound, seesaw, witness_report

e = expression_E()
print("Scenario: Alice outcomes per setting", e.scenario.outcomes_a,
      "| Bob", e.scenario.outcomes_b)

bound, strategy = local_bound(e)
print(f"\nExact local bound (enumeration): {bound}")
print(f"  attained by assignments A={strategy.assignment_a} B={strategy.assignment_b}")

cfg = SeesawConfig(restarts=60, seed=1)
qubit = seesaw(e, 2, 2, cfg)
qutrit = seesaw(e, 3, 3, cfg)
print(f"\nBest found with two qubits : {qubit.best_value:.9f}")
print(f"Best found with two qutrits: {qutrit.best_value:.9f}")

qubit_max = catalog.E_QUBIT_MAX
print(f"\nTwo-qubit maximum (sqrt(2) - 1)/2: {qubit_max:.9f}")
print(f"  search is within {abs(qubit.best_value - qubit_max):.2e} of it "
      f"and respects it as an upper bound: {qubit.best_value <= qubit_max + 1e-6}")

report = witness_report(e, 2, cfg, functional_id="E")
print(f"\nWitness report at d=2: {report.verdict}")
print(f"  value_d={report.value_d:.6f}  value_d+1={report.value_d_plus:.6f}  "
      f"gap={report.gap:.6f} (threshold {report.threshold})")
print(f"  note: value_d is a {report.value_label}, not a certified maximum")

print("\nSo correlations with E above ~0.2071 require more than qubits, and the")
print(f"qutrit search shows such correlations exist (up to {qutrit.best_value:.4f}).")
assert report.verdict == "Witnessed"
assert abs(qubit.best_value - (1.0 / math.sqrt(2.0) - 0.5)) < 1e-4
