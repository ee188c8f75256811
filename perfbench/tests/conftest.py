import os
import sys

# the benchmark's modules live one directory up and are imported by plain name
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
