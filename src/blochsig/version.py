__version__ = "0.2.0"
