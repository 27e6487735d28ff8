"""Fixed reference program: the yardstick for the speed of the machine.

    python3 perfbench/reference.py

run.py launches it right after each timed CLI run and scales that run's
times by it (see `speed_scaled` there). It imports numpy and nothing from the
package, so no change to the package moves its time, and its mix is the
CLI's: interpreter start, the numpy import, small complex matrices, small
Hermitian eigensolves and scalar Python loops. The inputs are fixed, and the
printed total is the same on every run.
"""

import numpy as np

ITERATIONS = 3000


def main() -> None:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(ITERATIONS):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = a @ a.conj().T
        eigenvalues = np.linalg.eigvalsh(h / np.trace(h).real)
        total += float(sum(x * np.log(x) for x in eigenvalues if x > 1e-12))
        s = 0.0
        for j in range(60):
            s += (j * 0.5) ** 2
        total += s * 1e-9
    print(f"{total:.9f}")


if __name__ == "__main__":
    main()
