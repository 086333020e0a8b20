"""The nine-qubit code end to end: correctability check, recovery
synthesis, and correction of errors inside the single-site span."""

import time

import numpy as np

from qinfokit import qec

t0 = time.time()
code = qec.shor_code()
paulis = qec.one_paulis(9)
print(f"code: {code.physical_dim}-dimensional physical space,"
      f" {code.logical_dim}-dimensional logical space")
print(f"error set: {len(paulis)} operators"
      " (identity + every single-site X, Y, Z)")

report = qec.kl_check(code, paulis)
print(f"correctability condition: passes={report.passes},"
      f" residual={report.max_residual:.2e}")

recovery = qec.build_recovery(code, paulis)
print(f"recovery channel synthesized: {recovery.kraus_count} Kraus operators")

check = qec.verify_recovery(recovery, paulis, samples=50, seed=0)
print("worst recovery deviation over 50 random logical states:"
      f" {check.max_deviation:.2e}")
print("certified deviation (Choi trace norm, bounds every state):"
      f" {check.certified_deviation:.2e}")

theta = 0.3
rot = (np.cos(theta) * np.eye(512)
       + 1j * np.sin(theta) * qec.pauli_on(9, 4, "X"))
print("single-qubit rotation exp(i 0.3 X_5) corrected:",
      qec.span_correction_check(code, paulis, [rot]))

xx = qec.pauli_on(9, 0, "X") @ qec.pauli_on(9, 1, "X")
print("two-qubit error X_1 X_2 corrected:",
      qec.span_correction_check(code, paulis, [xx]))

print(f"total time: {time.time() - t0:.1f}s")
