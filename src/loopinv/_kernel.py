"""Kernel selection for the hot row-reduction loop.

The compiled extension is used when it was built; the numpy fallback is
behaviorally identical.  BACKEND names the one in use.
"""

try:
    from loopinv._rowred import rref_mod_p
    BACKEND = "compiled"
except ImportError:
    from loopinv._rowred_py import rref_mod_p
    BACKEND = "python"
