"""pytest rewrites the asserts of test modules only; register the shared
helper module too, so its oracle asserts stay in force under
``python -O``."""

import pytest

pytest.register_assert_rewrite("util")
