"""repro — reproduction of Kurose, Schwartz & Yemini (1983).

*Controlling Window Protocols for Time-Constrained Communication in a
Multiple Access Environment* (Columbia CUCS-75-83; Proc. 5th Data
Communications Symposium, 1983).

The package implements, from scratch:

- :mod:`repro.core` — the controlled time-window protocol (policy
  elements 1-4, Theorem 1's optimal choices) and its uncontrolled
  FCFS / LCFS / RANDOM variants;
- :mod:`repro.des` — reproducible random streams;
- :mod:`repro.mac` — the slotted broadcast channel, stations and the
  window-MAC simulator;
- :mod:`repro.crp` — exact collision-resolution analysis (scheduling
  times, the window-length heuristic);
- :mod:`repro.queueing` — M/G/1 machinery incl. the impatient-customer
  model of eq. 4.7;
- :mod:`repro.smdp` — the semi-Markov decision model of §3 with Howard
  policy iteration (Appendix A);
- :mod:`repro.faults` — fault injection (imperfect feedback, station
  failures) and per-station replica resilience;
- :mod:`repro.workloads` — Poisson / MMPP / voice and nonstationary
  traffic;
- :mod:`repro.experiments` — the harness regenerating Figure 7,
  the Theorem 1 verification and the ablations;
- :mod:`repro.stats` — output analysis.

Quickstart
----------
>>> from repro import ControlPolicy, WindowMACSimulator
>>> policy = ControlPolicy.optimal(deadline=100, accepted_rate=0.02)
>>> sim = WindowMACSimulator(policy, arrival_rate=0.02,
...                          transmission_slots=25, deadline=100, seed=1)
>>> result = sim.run(horizon_slots=50_000, warmup_slots=5_000)
>>> 0.0 <= result.loss_fraction <= 1.0
True
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("ControlPolicy", "ProtocolController"),
    ".crp": ("WindowSizer", "optimal_window_occupancy"),
    ".faults": ("FaultModel", "FaultTelemetry"),
    ".experiments": ("PAPER_PANELS", "PanelConfig", "generate_panel"),
    ".mac": ("MACSimResult", "WindowMACSimulator"),
    ".queueing": ("ImpatientMG1", "LatticePMF", "loss_curve"),
    ".smdp": ("build_protocol_smdp", "policy_iteration"),
})

__version__ = "1.0.0"

__all__ = [
    "ControlPolicy",
    "ProtocolController",
    "WindowMACSimulator",
    "MACSimResult",
    "FaultModel",
    "FaultTelemetry",
    "ImpatientMG1",
    "LatticePMF",
    "loss_curve",
    "WindowSizer",
    "optimal_window_occupancy",
    "build_protocol_smdp",
    "policy_iteration",
    "PanelConfig",
    "PAPER_PANELS",
    "generate_panel",
    "__version__",
]
