"""Dynamic maintenance under churn: colors vs recoloring work.

Three engines face the same insert/delete stream:

* unique      -- fresh color per interval, zero recolorings, n colors
* dynamic t=2 -- B-tree over live endpoints, O(log n) colors and
                 O(log n) worst-case recolorings per update
* eps 0.5     -- same tree, but rebuilt only when n drifts by a factor
                 of 2; recoloring cost amortizes to ~n^eps per update

The interesting part is the trade-off row at the end: nobody gets both
few colors and few recolorings, which the adversary demo shows is forced.
"""

import random

from cfcolor import (
    Delete,
    DynamicEngine,
    EpsilonEngine,
    Insert,
    Interval,
    UniqueColorEngine,
    replay,
)


def drive(engine, ops):
    assert replay(engine, ops, audit="final").ok
    st = engine.state
    return {
        "colors": len(st.colors_seen(include_dummy=True)),
        "total": st.ledger.total(),
        "max": st.ledger.max_per_update(),
    }


rng = random.Random(41)
ops = []
live = []
for i in range(4_000):
    if live and rng.random() < 0.35:
        ops.append(Delete(live.pop(rng.randrange(len(live)))))
    else:
        a = rng.uniform(0.0, 300.0)
        ops.append(Insert(Interval(i, a, a + rng.uniform(0.5, 9.0))))
        live.append(i)

print(f"{len(ops)} operations, {len(live)} intervals survive")
print(f"{'engine':<12} {'colors':>6} {'recolor_total':>14} {'recolor_max':>12}")
for name, engine in [
    ("unique", UniqueColorEngine()),
    ("dynamic:t=2", DynamicEngine(2)),
    ("eps:0.5", EpsilonEngine(0.5)),
]:
    m = drive(engine, ops)
    print(f"{name:<12} {m['colors']:>6} {m['total']:>14} {m['max']:>12}")
