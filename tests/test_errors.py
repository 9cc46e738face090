import inspect
import pickle

import pytest

from bipers import errors
from bipers.errors import BipersError, BpmSyntaxError

ERROR_TYPES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, BipersError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    positioned = issubclass(cls, BpmSyntaxError)
    exc = cls("bad", 3, 4) if positioned else cls("bad")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    if positioned:
        assert (back.line, back.column) == (3, 4)
        assert str(back) == "line 3, column 4: bad"
