"""Section V-B: the multiscale biology workflow (Trifan et al.).

The paper's description: a mesoscale FFEA simulation and an atomistic MD
simulation iteratively coupled; autoencoders (ANCA-AE on the mesoscale
side, CVAE on the atomistic side) capture conformational changes; a graph
neural operator imposes consistency between the two resolutions; the
campaign spans four facilities orchestrated by Balsam.

Our reproduction:

- mesoscale: :class:`~repro.science.ffea.MassSpringModel` trajectories,
  embedded by a plain autoencoder (the ANCA-AE role);
- atomistic: :class:`~repro.science.md.LennardJonesMD` trajectories,
  embedded by a :class:`~repro.ml.autoencoder.VariationalAutoencoder`
  (the CVAE role);
- consistency: an MLP trained to map coarse latents to fine latents (the
  GNO role); its residual is the cross-resolution consistency score;
- event detection: a deformation applied to the mesoscale model must be
  flagged as a latent-space outlier and trigger an atomistic refinement;
- orchestration: the whole campaign laid out as a
  :class:`~repro.workflows.dag.TaskGraph` across the paper's four
  facilities, giving makespan vs. serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.autoencoder import Autoencoder, VariationalAutoencoder
from repro.ml.mlp import MLP
from repro.science.ffea import MassSpringModel
from repro.science.md import LennardJonesMD, lattice_state
from repro.workflows.dag import TaskGraph
from repro.workflows.facility import FACILITIES


@dataclass
class MultiscaleResult:
    """Outcome of the coupled multiscale campaign."""

    coarse_frames: int
    fine_frames: int
    consistency_rmse: float  # GNO-residual on held-out paired windows
    event_score_ratio: float  # outlier score of the deformation event / baseline
    event_detected: bool
    refinements_triggered: int


class MultiscaleWorkflow:
    """FFEA <-> MD coupling with learned latent spaces."""

    def __init__(
        self,
        n_side_coarse: int = 5,
        n_side_fine: int = 5,
        latent_dim: int = 2,
        seed: int | None = 0,
    ):
        if latent_dim < 1:
            raise ConfigurationError("latent_dim must be >= 1")
        self.latent_dim = latent_dim
        self.seed = seed
        self.coarse = MassSpringModel(n_side=n_side_coarse, seed=seed)
        state = lattice_state(n_side_fine, density=0.5, temperature=0.5, seed=seed)
        self.fine = LennardJonesMD(state, dt=0.002)
        self.refinements_triggered = 0

    def run(
        self,
        n_windows: int = 8,
        frames_per_window: int = 12,
        ae_epochs: int = 200,
        event_threshold: float = 3.0,
    ) -> MultiscaleResult:
        """Run paired windows, train the embeddings and coupler, then inject
        and detect a rare mesoscale event."""
        if n_windows < 4 or frames_per_window < 2:
            raise ConfigurationError("need >= 4 windows of >= 2 frames")
        if event_threshold <= 1:
            raise ConfigurationError("event_threshold must exceed 1")

        # 1. paired trajectories: window i of each resolution
        coarse_frames = []
        fine_frames = []
        for _ in range(n_windows):
            coarse_frames.append(
                self.coarse.sample_trajectory(frames_per_window, steps_per_frame=10)
            )
            fine_frames.append(
                self.fine.sample_trajectory(
                    frames_per_window, steps_per_frame=5,
                    temperature=0.5, seed=self.seed,
                )
            )
        coarse_all = np.vstack(coarse_frames)
        fine_all = np.vstack(fine_frames)

        # 2. embeddings (ANCA-AE / CVAE roles)
        anca = Autoencoder(
            coarse_all.shape[1], self.latent_dim, hidden=[16], seed=self.seed
        )
        anca.fit(coarse_all, epochs=ae_epochs, seed=self.seed)
        cvae = VariationalAutoencoder(
            fine_all.shape[1], self.latent_dim, hidden=[32], seed=self.seed
        )
        cvae.fit(fine_all, epochs=ae_epochs, seed=self.seed)

        # 3. consistency coupler (GNO role): window-mean coarse latent ->
        #    window-mean fine latent, trained on all but the last 2 windows
        z_coarse = np.array([
            anca.encode(w).mean(axis=0) for w in coarse_frames
        ])
        z_fine = np.array([cvae.encode(w).mean(axis=0) for w in fine_frames])
        n_train = n_windows - 2
        coupler = MLP(
            [self.latent_dim, 16, self.latent_dim], seed=self.seed
        )
        coupler.fit(
            z_coarse[:n_train], z_fine[:n_train], epochs=300, lr=5e-3,
            seed=self.seed,
        )
        resid = coupler.predict(z_coarse[n_train:]) - z_fine[n_train:]
        consistency_rmse = float(np.sqrt(np.mean(resid**2)))

        # 4. event injection and detection: deform the mesoscale body and
        #    check its frames are latent-space outliers
        baseline_score = float(
            np.median(anca.reconstruction_error(coarse_all))
        )
        self.coarse.apply_deformation(magnitude=3.0)
        event_frames = self.coarse.sample_trajectory(
            frames_per_window, steps_per_frame=1
        )
        event_score = float(np.median(anca.reconstruction_error(event_frames)))
        ratio = event_score / max(baseline_score, 1e-12)
        detected = ratio > event_threshold
        if detected:
            # trigger an atomistic refinement segment (the coupling action)
            self.fine.sample_trajectory(
                frames_per_window, steps_per_frame=5, temperature=0.5,
                seed=self.seed,
            )
            self.refinements_triggered += 1

        return MultiscaleResult(
            coarse_frames=coarse_all.shape[0] + event_frames.shape[0],
            fine_frames=fine_all.shape[0]
            + (frames_per_window if detected else 0),
            consistency_rmse=consistency_rmse,
            event_score_ratio=ratio,
            event_detected=detected,
            refinements_triggered=self.refinements_triggered,
        )

    @staticmethod
    def campaign_graph(
        n_windows: int = 4,
        md_hours: float = 2.0,
        ffea_hours: float = 0.5,
        train_hours: float = 1.0,
        use_cs2: bool = False,
    ) -> TaskGraph:
        """The Trifan et al. cross-facility campaign as a task graph.

        Per window: FFEA + ANCA-AE on ThetaGPU, AAMD on Perlmutter, CVAE
        training on Summit (or a Cerebras CS-2), and a GNO consistency step
        on ThetaGPU gated on both embeddings.
        """
        if n_windows < 1:
            raise ConfigurationError("need at least one window")
        graph = TaskGraph(FACILITIES)
        hour = 3600.0
        trainer = "cs2" if use_cs2 else "summit"
        trainer_nodes = 1 if use_cs2 else 256
        for w in range(n_windows):
            prev = (f"gno-{w - 1}",) if w else ()
            graph.add_task(
                f"ffea-{w}", ffea_hours * hour, "thetagpu", nodes=4, deps=prev
            )
            graph.add_task(
                f"aamd-{w}", md_hours * hour, "perlmutter", nodes=1536, deps=prev
            )
            graph.add_task(
                f"anca-{w}", 0.3 * hour, "thetagpu", nodes=2, deps=(f"ffea-{w}",)
            )
            graph.add_task(
                f"cvae-{w}", train_hours * hour, trainer, nodes=trainer_nodes,
                deps=(f"aamd-{w}",),
            )
            graph.add_task(
                f"gno-{w}", 0.4 * hour, "thetagpu", nodes=8,
                deps=(f"anca-{w}", f"cvae-{w}"),
            )
        return graph
