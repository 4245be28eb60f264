"""The site-by-site Ising sweep, kept as a test oracle.

:class:`ScalarMonteCarlo` is the production
:class:`~repro.science.ising.MonteCarlo` with one method swapped out:
``sweep`` walks each colour sub-lattice site by site instead of updating it
as one numpy array. ``run`` and ``temperature_sweep`` drive it unchanged,
so a divergence between the two samplers is a bug in the vectorised sweep.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.science.ising import MonteCarlo


class ScalarMonteCarlo(MonteCarlo):
    """The Metropolis sampler swept one site at a time."""

    def sweep(self, temperature: float) -> float:
        """Site-by-site reference implementation of one full sweep.

        Walks each colour sub-lattice in row-major order, recomputing the
        local neighbour sum per site. Same-colour sites do not interact, so
        this is mathematically the simultaneous checkerboard update; drawing
        the *same* full-lattice uniform array per colour makes the two paths
        agree bit for bit on every spin, not just in distribution.
        """
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        accepted = 0
        size = self.lattice.size
        j = self.lattice.j
        for color in (self._color, ~self._color):
            s = self.lattice.spins
            uniform = self.rng.random(s.shape)
            for a in range(size):
                for b in range(size):
                    if not color[a, b]:
                        continue
                    nbr = (
                        int(s[(a + 1) % size, b]) + int(s[a - 1, b])
                        + int(s[a, (b + 1) % size]) + int(s[a, b - 1])
                    )
                    d_e = -2.0 * j * int(s[a, b]) * nbr
                    if d_e <= 0 or uniform[a, b] < float(
                        np.exp(-max(d_e, 0.0) / temperature)
                    ):
                        s[a, b] = -s[a, b]
                        accepted += 1
        return accepted / self.lattice.spins.size
