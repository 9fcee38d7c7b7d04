"""A short tour of the dense reverse-mode autodiff engine.

Builds a tiny two-layer computation by hand, runs backward, and then lets
the finite-difference checker confirm every gradient. Run with:

    python3 demos/01_autodiff_tour.py
"""

import numpy as np

from latentgraph.engine import (
    SparseMatrix,
    Value,
    backward,
    grad_check,
    matmul,
    relu,
    spmm,
    sum_squares,
)


def main():
    rng = np.random.default_rng(0)

    print("1. Leaves are Value nodes wrapping float64 matrices.")
    x = Value(rng.normal(size=(4, 3)))
    w1 = Value(rng.normal(size=(3, 5)) * 0.5)
    w2 = Value(rng.normal(size=(5, 2)) * 0.5)
    print(f"   x{x.data.shape}, w1{w1.data.shape}, w2{w2.data.shape}")

    print("2. Ops build a graph; nothing is computed twice.")
    hidden = relu(matmul(x, w1))
    out = matmul(hidden, w2)
    loss = sum_squares(out)
    print(f"   loss = sum of squares = {loss.data.item():.6f}")

    print("3. backward(loss) returns the gradient of this loss on every")
    print("   reachable leaf, also left in its .grad, and frees the graph as")
    print("   it walks it; nothing carries over between calls.")
    first = backward(loss)
    print(f"   |dL/dw1| Frobenius = {np.linalg.norm(w1.grad):.6f}")
    print(f"   |dL/dw2| Frobenius = {np.linalg.norm(w2.grad):.6f}")
    second = backward(sum_squares(matmul(relu(matmul(x, w1)), w2)))
    same = all(np.array_equal(second[w], first[w]) for w in (x, w1, w2))
    print(f"   a fresh forward gives the same gradient again: {same}")
    assert same

    print("4. Sparse adjacency matrices flow through spmm.")
    adj = np.zeros((4, 4))
    for i in range(4):
        adj[i, (i + 1) % 4] = adj[(i + 1) % 4, i] = 1.0
    ring = SparseMatrix.from_dense(adj)
    mixed = spmm(ring, Value(rng.normal(size=(4, 3))))
    print(f"   ring-mixed features have shape {mixed.data.shape}")

    print("5. The checker compares every coordinate against central")
    print("   finite differences and reports the worst relative error.")

    def f():
        return sum_squares(matmul(relu(matmul(x, w1)), w2))

    report = grad_check(f, [x, w1, w2], step=1e-3, tol=1e-4)
    print(f"   checked {report.coords_checked} coordinates, "
          f"max relative error {report.max_rel_err:.2e}, "
          f"ok={report.ok}")
    assert report.ok


if __name__ == "__main__":
    main()
