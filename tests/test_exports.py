import pytest

import oscillab
from oscillab import core, reduction


@pytest.mark.parametrize("module", [oscillab, core, reduction],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
