"""python -m matchprice: the matchprice command line."""
from .cli import main
raise SystemExit(main())
