import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopf_dde import (PRESETS, char_coeffs, find_equilibria, first_hopf,
                      hopf_candidates)


@pytest.fixture(scope="session")
def preset_data():
    """Equilibrium, characteristic coefficients and Hopf point per preset."""
    out = {}
    for name, p in PRESETS.items():
        eq = find_equilibria(p)[0]
        cc = char_coeffs(p, eq)
        out[name] = (p, eq, cc, first_hopf(cc, hopf_candidates(cc)))
    return out
