"""Zero-error communication: confusability graphs, independence numbers,
and the entanglement-assisted theta SDP."""

import numpy as np

from qinfokit import sdpcore, zeroerr

print("=== A classical pentagon channel ===")
kernel = np.zeros((5, 5))
for x in range(5):
    kernel[x, x] = 0.5
    kernel[(x + 1) % 5, x] = 0.5
g = zeroerr.confusability_graph(kernel)
print("confusability edges:", sorted(g.edges))
print("independence number alpha(C5):", zeroerr.graph_independence(g))

s = zeroerr.graph_op_system(g)
print("graph operator system dimension:", len(s))
result = zeroerr.theta_tilde(s)
print(f"theta(S_C5) = {result.value:.8f}"
      f"  (classical Lovasz value {np.sqrt(5):.8f})")
print(f"value enclosure [{result.primal:.10f}, {result.dual:.10f}], "
      f"width {result.gap:.2e}")

classical = sdpcore.lovasz_theta(5, [(i, (i + 1) % 5) for i in range(5)])
print(f"independent classical SDP gives {classical:.8f}")

print("\n=== Dense coding saturates theta = n^2 ===")
for n in (2, 3):
    trivial = zeroerr.operator_system(n, [np.eye(n)])
    print(f"  theta(C I_{n}) = {zeroerr.theta_tilde(trivial).value:.6f}")

print("\n=== Larger systems, smaller theta ===")
chain = [
    ("diagonal matrices", zeroerr.graph_op_system(zeroerr.empty_graph(3))),
    ("tridiagonal matrices",
     zeroerr.graph_op_system(zeroerr.Graph(3, frozenset({(0, 1), (1, 2)})))),
    ("all of M_3", zeroerr.graph_op_system(zeroerr.complete_graph(3))),
]
for name, system in chain:
    print(f"  {name:22s}: theta = {zeroerr.theta_tilde(system).value:.6f}")
