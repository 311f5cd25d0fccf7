"""Software viewport rendering: camera, rasterizer, 6DoF traces."""

from .camera import Camera
from .rasterizer import render
from .viewport import TRACE_KINDS, viewport_trace

__all__ = ["Camera", "render", "viewport_trace", "TRACE_KINDS"]
