__version__ = "0.11.0"
