"""Confidence-scored selection and fusion of crowdsourced lane maps.

The package root holds only ``__version__``; every name is imported from
the module that defines it (``lanefuse.mapmodel.LaneLine``,
``lanefuse.pipeline.update``), so ``import lanefuse`` loads no submodule.
"""

__version__ = "0.1.0"
