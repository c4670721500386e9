#!/usr/bin/env python3
"""Priority through per-station window sizes (§5 future work).

The paper's conclusion sketches a priority mechanism: let stations pick
different initial window sizes.  Here, low-priority stations respond
only to the *oldest half* of each enabled window (window_scale = 0.5):
their fresh messages defer to any full-scale station's traffic, and they
join contention only once their messages have aged into the older half.

Two station classes share an overloaded channel (ρ′ ≈ 0.9); the table
shows the per-class loss with and without the priority scaling.

Run:  python examples/priority_stations.py
"""


from repro.core import ControlPolicy
from repro.experiments import ascii_table
from repro.mac import MessageFate, WindowMACSimulator

MESSAGE_SLOTS = 25
DEADLINE = 150.0
N_STATIONS = 20  # stations 0-9 high priority, 10-19 low
OFFERED_LOAD = 0.9
HORIZON = 200_000.0
WARMUP = 20_000.0


def run(priority_enabled: bool, seed: int = 13):
    lam = OFFERED_LOAD / MESSAGE_SLOTS
    simulator = WindowMACSimulator(
        ControlPolicy.optimal(DEADLINE, lam),
        arrival_rate=lam,
        transmission_slots=MESSAGE_SLOTS,
        n_stations=N_STATIONS,
        deadline=DEADLINE,
        seed=seed,
        # Per-message records (scored_messages) come from the reference
        # loop only; the scaled-station arm would run there anyway.
        backend="reference",
    )
    if priority_enabled:
        for station in range(N_STATIONS // 2, N_STATIONS):
            simulator.registry.set_window_scale(station, 0.5)
    simulator.run(HORIZON, warmup_slots=WARMUP)

    # Per-class scoring from the message records.
    high = {"lost": 0, "total": 0}
    low = {"lost": 0, "total": 0}
    for message in simulator.scored_messages:
        bucket = high if message.station < N_STATIONS // 2 else low
        bucket["total"] += 1
        if message.fate in (MessageFate.DELIVERED_LATE, MessageFate.DISCARDED_AT_SENDER):
            bucket["lost"] += 1
    return high, low


def loss(bucket):
    return bucket["lost"] / bucket["total"] if bucket["total"] else float("nan")


def main() -> None:
    rows = []
    for enabled in (False, True):
        high, low = run(enabled)
        rows.append(
            [
                "on" if enabled else "off",
                f"{loss(high):.4f}",
                f"{loss(low):.4f}",
                f"{(loss(low) + loss(high)) / 2:.4f}",
            ]
        )
    print(
        ascii_table(
            ["priority scaling", "high-class loss", "low-class loss", "mean"],
            rows,
            title=(
                f"Two-class priority via window scale (rho'={OFFERED_LOAD}, "
                f"K={DEADLINE:g})"
            ),
        )
    )
    print(
        "\nWith scaling on, the high class's loss drops while the low class\n"
        "pays — the §5 trade the paper anticipated.  (Note low-priority\n"
        "messages skipped by a resolved window retire only via element 4,\n"
        "one reason the paper calls the general problem 'potentially\n"
        "difficult'.)"
    )


if __name__ == "__main__":
    main()
