"""Parameter arrays of a device group, serial or unit-stacked.

A device group holds either one circuit's devices of a family at one
temperature (a *serial* group: 1-D arrays over the devices and a
Python-float U_T), or the same devices of N same-topology circuits at
per-unit temperatures (a *stacked* group: ``(N, n_dev)`` arrays and U_T
as an ``(N, 1)`` column).  Both are built by one constructor: it takes
the models as a list, or one list per unit, and ``temp_c`` as a float,
or one temperature per unit, and builds every model array through
:class:`UnitParams` from the same Python values, so a stacked row equals
its unit's serial array bit for bit.  Temperature laws stay Python
scalar calls (``vth_at``/``kp_at``/``is_at``, ``ut**2``): ``array **
float`` and vectorised ``exp`` are not bit-identical to their scalar
forms.  A stacked group makes each call once per distinct (model object,
temperature) pair and gathers the results to the units: the calls are
pure, so a gathered value is the call's own result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def unit_rows(items: list, get: Callable, stacked: bool) -> list:
    """``get`` of every item: of one list (serial), or of each unit's
    list (stacked), computed once per distinct list object, so units
    that share one list (a circuit repeated across temperatures) share
    its row."""
    if not stacked:
        return [get(x) for x in items]
    rows: dict[int, list] = {}
    for lst in items:
        if id(lst) not in rows:
            rows[id(lst)] = [get(x) for x in lst]
    return [rows[id(lst)] for lst in items]


class UnitParams:
    """Per-device model values of one device family, at ``temp_c``
    [degC]: a float for a serial group, one per unit (a list) for a
    stacked one, whose ``models`` are then one list per unit, read once
    per distinct model object and gathered to the units by index."""

    def __init__(self, models: list, temp_c: float | list[float]) -> None:
        self.stacked = isinstance(temp_c, list)
        self._models = models
        self._temps = temp_c
        if not self.stacked:
            return
        # Distinct model objects, and per unit each device's index into
        # them; one index row per distinct model list.
        index: dict[int, int] = {}
        self._distinct: list = []
        rows: dict[int, list[int]] = {}
        for mdls in models:
            if id(mdls) in rows:
                continue
            row = []
            for mdl in mdls:
                k = index.get(id(mdl))
                if k is None:
                    k = index[id(mdl)] = len(self._distinct)
                    self._distinct.append(mdl)
                row.append(k)
            rows[id(mdls)] = row
        self._pick = np.array([rows[id(mdls)] for mdls in models], dtype=np.intp)
        temps = {t: k for k, t in enumerate(dict.fromkeys(temp_c))}
        self._unique_temps = list(temps)
        self._temp_pick = np.array([temps[t] for t in temp_c], dtype=np.intp)

    def model(self, attr: str) -> np.ndarray:
        """Per-device model attribute."""
        if not self.stacked:
            return np.array([getattr(mdl, attr) for mdl in self._models])
        return np.array([getattr(mdl, attr) for mdl in self._distinct])[self._pick]

    def at_temp(self, law: str) -> np.ndarray:
        """Model method ``law`` (``vth_at``, ``is_at``, ...) per device,
        called at each unit's temperature."""
        if not self.stacked:
            return np.array([getattr(mdl, law)(self._temps) for mdl in self._models])
        table = np.array([[getattr(mdl, law)(t) for mdl in self._distinct]
                          for t in self._unique_temps])
        return table[self._temp_pick[:, None], self._pick]

    def per_unit(self, law: Callable[[float], float]) -> float | np.ndarray:
        """``law(temp_c)`` per unit: a Python float, or an (N, 1) column."""
        if not self.stacked:
            return law(self._temps)
        return np.array([law(t) for t in self._unique_temps])[self._temp_pick][:, None]
