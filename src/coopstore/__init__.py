"""Cooperative regenerating storage codes with exact secrecy verification.

Build a stable code, measure what an eavesdropper learns, and verify the
closed-form secrecy capacity by exact rank computation:

    from coopstore.instances import s1
    from coopstore.eve import EveModel, measured_secrecy_capacity

    code = s1()
    measured_secrecy_capacity(code, EveModel(F=(1,)))   # -> 2

Every name is imported from the module that defines it; the package root
holds only __version__.
"""

__version__ = "0.1.0"
