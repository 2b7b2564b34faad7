from hypothesis import settings

# Every run draws the same examples, so a tier-1 result is reproducible.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
