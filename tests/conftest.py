import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from aag.table import DiscreteTable

# One profile for every property test: examples are whole searches or
# model fits, so no per-example deadline; a failure prints its replay blob.
settings.register_profile(
    "aag", deadline=None, suppress_health_check=[HealthCheck.too_slow], print_blob=True
)
settings.load_profile("aag")

# (criterion name, passed/total, failure summaries) filled by the acceptance suite
ACCEPTANCE_RESULTS: list[tuple[str, int, int, list[str]]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, total, failures in ACCEPTANCE_RESULTS:
        status = "PASS" if not failures else "FAIL"
        terminalreporter.write_line(f"[acceptance] {name}: {status} ({passed}/{total} checks)")
        for failure in failures:
            terminalreporter.write_line(f"    - {failure}")


def encode(column):
    """Map raw symbols to dense codes in first-occurrence order."""
    seen = {}
    return [seen.setdefault(v, len(seen)) for v in column]


def table_from_columns(*columns) -> DiscreteTable:
    return DiscreteTable(np.array([encode(list(c)) for c in columns]).T)


# Worked example, 10 rows x 2 attributes: a binary attribute and a
# three-color attribute.
TEN_ROWS_A1 = [0, 1, 0, 1, 0, 0, 1, 0, 0, 1]
TEN_ROWS_A2 = list("RGRGGRBBRG")


@pytest.fixture(scope="session")
def pair_table() -> DiscreteTable:
    return table_from_columns(TEN_ROWS_A1, TEN_ROWS_A2)


@pytest.fixture(scope="session")
def quad_table() -> DiscreteTable:
    """Four attributes: the pair above plus an all-distinct counter and a
    second binary attribute correlated with the first."""
    a3 = list(range(1, 11))
    a4 = [1, 0, 1, 0, 1, 0, 0, 0, 1, 0]
    return table_from_columns(TEN_ROWS_A1, TEN_ROWS_A2, a3, a4)


SEVEN_ATTR_ROWS = [
    [0, "R", 1, 1, "a", 3, 9],
    [1, "G", 2, 0, "a", 3, 9],
    [0, "R", 3, 1, "a", 5, 25],
    [1, "G", 4, 0, "a", 5, 25],
    [0, "G", 5, 1, "a", 7, 49],
    [0, "R", 6, 0, "b", 8, 64],
    [1, "B", 7, 1, "b", 10, 100],
    [0, "B", 8, 0, "b", 10, 100],
    [0, "R", 9, 0, "b", 11, 121],
    [1, "G", 10, 0, "a", 11, 121],
]


@pytest.fixture(scope="session")
def seven_attr_table() -> DiscreteTable:
    """Ten rows, seven attributes; attributes 5 and 6 induce the same
    partition (one is the square of the other), and attribute 4 is the XOR
    of attributes 0 and 3 ("a" exactly where they differ), so the triple
    (0, 3, 4) has negative interaction information."""
    return table_from_columns(*zip(*SEVEN_ATTR_ROWS))


def random_table(rng: np.random.Generator, n_rows: int, n_attrs: int,
                 max_arity: int = 5) -> DiscreteTable:
    cols = []
    for _ in range(n_attrs):
        arity = int(rng.integers(2, max_arity + 1))
        col = rng.integers(0, arity, size=n_rows)
        # re-densify so every code in range occurs
        _, col = np.unique(col, return_inverse=True)
        cols.append(col)
    return DiscreteTable(np.column_stack(cols))
