"""Strong subadditivity, Petz recovery, and quantum Markov states."""

import numpy as np

from qinfokit import entropy, matkit
from qinfokit.randkit import haar_unitary, random_channel, random_state

rng = np.random.default_rng(3)

print("=== Strong subadditivity on random tripartite states ===")
worst = np.inf
for _ in range(500):
    rho = random_state((2, 2, 2), rng)
    worst = min(worst, entropy.cond_mutual_info(rho).cmi)
print(f"smallest I(A:C|B) over 500 samples: {worst:.3e}  (never below zero)")

print("\n=== Petz recovery ===")
sigma = random_state((3,), rng)
ch = random_channel(3, 3, 2, rng)
recovery = entropy.petz_map(sigma, ch)
err = np.linalg.norm(recovery(ch(sigma.rho)) - sigma.rho)
print(f"||Petz(T(sigma)) - sigma|| = {err:.2e}")

print("\n=== Markov states saturate strong subadditivity ===")
spec = [
    (0.6, random_state((2, 2), rng), random_state((2, 2), rng)),
    (0.4, random_state((2, 2), rng), random_state((2, 2), rng)),
]
rho = entropy.markov_state(spec)
print("dims:", rho.dims)
report = entropy.cond_mutual_info(rho)
print(f"I(A:C|B) = {report.cmi:.3e}")
recon = entropy.markov_reconstruction(rho)
print("transfer-map reconstruction error:",
      f"{matkit.norm(recon - rho.rho, 'trace'):.2e}")
print("is_markov:", entropy.is_markov(rho))

generic = random_state((2, 2, 2), rng)
print("\na generic state is not Markov:",
      f"cmi = {entropy.cond_mutual_info(generic).cmi:.4f},",
      "is_markov:", entropy.is_markov(generic))

print("\n=== Fixed points of a mixed-unitary channel ===")
units = []
for _ in range(2):
    u = np.zeros((3, 3), dtype=complex)
    u[:2, :2] = haar_unitary(2, rng)
    u[2, 2] = 1.0
    units.append(u / np.sqrt(2))
comm = entropy.kraus_commutant(units)
print(f"commutant dimension for block-diagonal Kraus: {len(comm)}")
