"""From-scratch differentiable building blocks (float64 numpy throughout)."""
