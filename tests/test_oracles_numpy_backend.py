"""The four oracle suites, the progressive golden trace and the radix seam
once more, on the NumPy kernel backend.

``test_differential_oracle``, ``test_outofcore_oracle``, ``test_sharded_oracle``,
``test_pending_read_path``, ``test_progressive_golden`` and
``test_radix_kernels`` run on whatever backend ``repro.kernels`` resolved (the
compiled one where the host has ``cc``).  Importing their tests here collects
them a second time, with the ``kernel_backend`` fixture pinned to the
mandatory fallback — same tests, same oracles, the other backend.
"""

import pytest

from tests.test_differential_oracle import *  # noqa: F401,F403
from tests.test_outofcore_oracle import *  # noqa: F401,F403
from tests.test_pending_read_path import *  # noqa: F401,F403
from tests.test_progressive_golden import *  # noqa: F401,F403
from tests.test_radix_kernels import *  # noqa: F401,F403
from tests.test_sharded_oracle import *  # noqa: F401,F403

pytestmark = [
    pytest.mark.usefixtures("kernel_backend"),
    pytest.mark.parametrize("kernel_backend", ["numpy"], indirect=True),
]
