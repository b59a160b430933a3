"""Two-state superpositions in a 1D box and their oscillating quasi-nodes."""

from . import analysis, nodes, verify, well
from .well import *
from .nodes import *
from .analysis import *
from .verify import *

__version__ = "0.1.0"

__all__ = []
__all__ += well.__all__
__all__ += nodes.__all__
__all__ += analysis.__all__
__all__ += verify.__all__
