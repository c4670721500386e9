"""Selector values, in a module with no imports: the CLI parser offers
them as choices without loading their owners, which re-export them."""

#: Valid values of :class:`~repro.mac.simulator.WindowMACSimulator`'s
#: ``backend`` selector.
BACKENDS = ("compiled", "reference")

#: The divergence-recovery policies selectable per run.
RECOVERY_POLICIES = ("reset-to-epoch", "gated-rejoin", "drop-out")
