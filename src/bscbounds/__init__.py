"""MMSE-driven entropy bounds for binary processes observed through
binary symmetric channels.

The package splits into scalar information quantities (`scalar`), exact
brute-force distributions (`dist`), the bound evaluators (`bounds`), the
hidden-Markov machinery (`hmm`), invariant suites (`validate`), and a CLI
(`cli`). Everything public is re-exported here.
"""

from . import bounds, dist, errors, hmm, scalar
from .bounds import *
from .dist import *
from .errors import *
from .hmm import *
from .scalar import *

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *dist.__all__, *errors.__all__, *hmm.__all__, *scalar.__all__]
