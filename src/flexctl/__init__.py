"""flexctl: discrete energy-based DC motor control under switched sampling periods."""

__version__ = "0.1.0"
