from . import cli

cli.run()
