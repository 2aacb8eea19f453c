"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid geometric data: a constructor invariant failed or an argument is out of range."""


class BaseMismatchError(GeometryError):
    """Tangent vectors anchored at different points were combined."""


class GeodesicMismatchError(GeometryError):
    """Jacobi data belonging to different geodesics was combined."""


class NumericalError(RuntimeError):
    """A computation could not be resolved at the requested tolerance."""


class ConfigError(ValueError):
    """Invalid run configuration supplied to the command line front end."""
