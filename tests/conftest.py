import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and never time out, so
# the suite is reproducible and does not depend on the speed of the host.
settings.register_profile(
    "semicalib", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("semicalib")
