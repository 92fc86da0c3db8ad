import doctest

import pytest

from fusedhecke import fused, permutations, qnumbers


@pytest.mark.parametrize("module", [qnumbers, permutations, fused])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
