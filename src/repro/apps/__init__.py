"""The paper's case-study applications (section 5.1) and the ring
scalability workload (section 5.2), written in Stateful NetKAT."""

from .authentication import authentication_app
from .bandwidth_cap import DEFAULT_CAP, bandwidth_cap_app
from .base import App, HOSTS
from .firewall import firewall_app
from .ids import ids_app
from .learning_multi import learning_multi_app
from .learning_switch import learning_switch_app
from .ring import SIGNAL_FIELD, ring_app

__all__ = [
    "App",
    "HOSTS",
    "firewall_app",
    "learning_switch_app",
    "learning_multi_app",
    "authentication_app",
    "bandwidth_cap_app",
    "DEFAULT_CAP",
    "ids_app",
    "ring_app",
    "SIGNAL_FIELD",
]
