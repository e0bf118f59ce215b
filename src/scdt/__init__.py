"""Signed cumulative distribution transforms of one-dimensional signals.

Forward and inverse transport transforms of probability, positive, and signed
measures against an atomless reference; transport distances with mass
channels; transform-space laws under increasing reparameterizations; and a
linear-separability classification benchmark on synthetic signed signals.

The package re-exports the ``__all__`` of each library module below;
``scdt.fileio`` and ``scdt.cli`` are imported by module name.
"""

from . import errors, steps, measures, transform, metrics, genmodel, classify
from .errors import *
from .steps import *
from .measures import *
from .transform import *
from .metrics import *
from .genmodel import *
from .classify import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, steps, measures, transform, metrics, genmodel, classify)
           for name in module.__all__]
