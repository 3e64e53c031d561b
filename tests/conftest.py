"""Test-session settings.

A `ci` hypothesis profile is registered for continuous integration:
derandomized examples, no deadline, and the reproduction blob printed with
every failure.  It is loaded when HYPOTHESIS_PROFILE names it (the CI
workflow sets HYPOTHESIS_PROFILE=ci); without the variable hypothesis keeps
its default profile.  Tests' own @settings still override its fields.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
