from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
# Ten times the suite's examples, for a long run of chosen files:
# pytest <files> --hypothesis-profile=deep.  The option is applied after
# this file is loaded, so it replaces the profile loaded below.
settings.register_profile("deep", settings.get_profile("suite"), max_examples=500)
settings.load_profile("suite")
