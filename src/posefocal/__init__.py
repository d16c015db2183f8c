"""Joint 6D object-pose and focal-length estimation: update rules, losses,
pose/focal sampling distributions, evaluation metrics, and a closed-loop
refinement simulator. Import from the submodules."""

__version__ = "0.1.0"
