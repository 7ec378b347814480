"""Shared utilities: exact combinatorics, seeded RNG helpers, flop accounting."""

from repro.util.combinatorics import (
    binomial,
    factorial,
    factorial_table,
    multinomial,
    multinomial1_from_index,
    multinomial_from_index,
    num_total_entries,
    num_unique_entries,
    symmetry_savings_factor,
)
from repro.util.asciiplot import ascii_bars, ascii_plot
from repro.util.flopcount import FlopCounter, counting, null_counter
from repro.util.rng import (
    fibonacci_sphere,
    make_rng,
    random_unit_vector,
    random_unit_vectors,
    starting_vectors,
)

__all__ = [
    "binomial",
    "factorial",
    "factorial_table",
    "multinomial",
    "multinomial1_from_index",
    "multinomial_from_index",
    "num_total_entries",
    "num_unique_entries",
    "symmetry_savings_factor",
    "ascii_bars",
    "ascii_plot",
    "FlopCounter",
    "counting",
    "null_counter",
    "fibonacci_sphere",
    "make_rng",
    "random_unit_vector",
    "random_unit_vectors",
    "starting_vectors",
]
