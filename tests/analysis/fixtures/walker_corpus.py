"""Walker corpus: one NUM and one UNI hazard under every construct.

``tests/analysis/test_walker_golden.py`` pins the full NUM and UNI
finding lists for this file, so any change to how the shared walker
visits a statement or expression kind shows up as a golden diff.  Each
block below places a numeric hazard (``NUM00x``) and a dimensional one
(``UNI00x``) under one construct; the module never runs.

The two hazards used throughout:

* NUM — ``x == 1.5`` (float equality, NUM004) or ``1.0 / np.zeros(3)``
  (division by zero evidence, NUM003);
* UNI — ``c.energy_adc_nj + c.latency_adc_ns`` (nJ + ns, UNI001) or a
  suffixed binding of the wrong unit (UNI004).
"""

from __future__ import annotations

import numpy as np

# -- module level -------------------------------------------------------
ZEROS = np.zeros(3)
MODULE_RATIO = 1.0 / ZEROS


def module_level_unit(c):
    return c.energy_adc_nj + c.latency_adc_ns


# -- if / else join -----------------------------------------------------
def if_else_join(c, flag, x):
    if flag:
        d = np.zeros(3)
        hit = x == 1.5
        cost = c.energy_adc_nj + c.latency_adc_ns
    else:
        d = np.ones(3)
        hit = x == 2.5
        cost = c.energy_dac_nj - c.latency_dac_ns
    # ``d`` joins np.zeros with np.ones: zero evidence survives the merge.
    return 1.0 / d, hit, cost


def if_join_declared_name(c, flag):
    if flag:
        t_nj = c.energy_adc_nj
    else:
        t_nj = c.energy_dac_nj
    return t_nj + c.latency_adc_ns


# -- early exit ---------------------------------------------------------
def early_exit_guard(a, b, c):
    d = a - b
    if d == 0:
        return c.energy_adc_nj + c.latency_adc_ns
    # the negated guard ``d != 0`` discharges the zero evidence
    return 1 / d


def early_exit_unguarded(a, b, c, x):
    d = a - b
    if d > 0:
        raise ValueError(x == 0.5)
    # ``not (d > 0)`` still allows zero: the division is flagged
    total_nj = c.latency_adc_ns
    return 1 / d, total_nj


# -- for / while / else -------------------------------------------------
def for_loop(c, xs):
    total = 0
    for x in xs:
        total += x == 1.5
        total += c.energy_adc_nj + c.latency_adc_ns
    else:
        total += 1.0 / np.zeros(3)
        total += c.energy_dac_nj - c.latency_dac_ns
    return total


def while_loop(c, n):
    total = 0
    while n == 0.5:
        total += c.energy_adc_nj + c.latency_adc_ns
    else:
        total += 1.0 / np.zeros(2)
        total += c.energy_dac_nj < c.latency_dac_ns
    return total


# -- with ---------------------------------------------------------------
def with_block(c, ctx, x):
    with ctx(x == 1.5) as handle:
        handle.push(c.energy_adc_nj + c.latency_adc_ns)
        handle.push(1.0 / np.zeros(4))
    return handle


# -- try / except / else / finally --------------------------------------
def try_block(c, x):
    try:
        out = x == 1.5
        out_nj = c.latency_adc_ns
    except ValueError:
        out = 1.0 / np.zeros(3)
        out_nj = c.energy_adc_nj + c.latency_adc_ns
    else:
        out = x == 2.5
    finally:
        x = c.energy_dac_nj - c.latency_dac_ns
    return out, out_nj, x


# -- nested function and class ------------------------------------------
def outer(c):
    def inner(x):
        return x == 1.5, c.energy_adc_nj + c.latency_adc_ns

    class Local:
        ratio = 1.0 / np.zeros(3)

        def cost_ns(self):
            return c.energy_adc_nj

    return inner, Local


class Holder:
    flag = np.zeros(2) == 0.5

    def latency_ns(self, c):
        return c.energy_adc_nj


# -- tuple assignment ---------------------------------------------------
def tuple_assignment(c, x):
    first, second = x == 1.5, 1.0 / np.zeros(3)
    e_nj, t_ns = c.latency_adc_ns, c.energy_adc_nj
    return first, second, e_nj, t_ns


# -- augmented assignment -----------------------------------------------
def augmented(c):
    acc = np.zeros(3, dtype=np.int32)
    acc += np.ones(3, dtype=np.int64)
    total_nj = c.energy_adc_nj
    total_nj += c.latency_adc_ns
    return acc, total_nj


# -- comprehensions -----------------------------------------------------
def comprehensions(c, xs):
    listed = [x == 1.5 for x in xs]
    setted = {c.energy_adc_nj + c.latency_adc_ns for _ in xs}
    keyed = {x: 1.0 / np.zeros(2) for x in xs}
    valued = {x: c.energy_dac_nj - c.latency_dac_ns for x in xs}
    gen = list(y == 2.5 for y in [c.energy_adc_nj < c.latency_adc_ns])
    return listed, setted, keyed, valued, gen


# -- conditional expression ---------------------------------------------
def if_expression(c, x):
    first = (x == 1.5) if x else 1.0 / np.zeros(3)
    second = c.energy_adc_nj + c.latency_adc_ns if x else 0.0
    third = 0.0 if x else c.energy_dac_nj - c.latency_dac_ns
    return first, second, third


# -- boolean operators --------------------------------------------------
def bool_ops(c, x):
    first = x and x == 1.5
    second = x or 1.0 / np.zeros(3)
    third = x and c.energy_adc_nj + c.latency_adc_ns
    return first, second, third
