"""Dynamic MRI reconstruction with alternating x-f and image-space networks.

Subpackage layout:

* :mod:`ktnext.volume`    complex volumes, domain tags, centered orthonormal FFTs
* :mod:`ktnext.sampling`  k-t sampling masks, phantom simulation, sequence files
* :mod:`ktnext.xf`        temporal-average baseline and data consistency
* :mod:`ktnext.autodiff`  reverse-mode tape over real arrays with FFT-aware nodes
* :mod:`ktnext.network`   the parameter store, ADAM, recurrent layers, checkpoints
* :mod:`ktnext.model`     the cascaded reconstruction network and its trainer
* :mod:`ktnext.metrics`   PSNR / SSIM / HFEN on magnitude sequences
* :mod:`ktnext.cli`       command line entry points

This module deliberately imports nothing heavy: the CLI must be able to pin
BLAS thread counts through the environment before numpy is first loaded.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
