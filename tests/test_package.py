import types

import rigclique


def test_all_lists_each_public_name_once():
    # a name dropped from the imports but not from __all__, or the other
    # way round, breaks this
    public = {name for name, value in vars(rigclique).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(rigclique.__all__) == len(set(rigclique.__all__))
    assert set(rigclique.__all__) == public
