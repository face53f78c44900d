"""entanglab: a numerical laboratory for bipartite quantum entanglement.

Subpackages by theme:

* states       qubits, Bell states, spin directions, Born-rule statistics
* measures     partial trace, Schmidt decomposition, entropy, coherence
* bellgame     the three-question correlation game and its pigeonhole bound
* finite       finite-dimensional evolution and Hamiltonian factorization
* grid         two-particle split-step solver on a periodic lattice
* islands      Hartree mean-field dynamics and classical-regime scans
* cli          command-line front end (``entanglab <subcommand>``)
* blas         pins NumPy's OpenBLAS to one thread for the length of a run
"""

__version__ = "0.1.0"
