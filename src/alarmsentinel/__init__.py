"""False-arrhythmia-alarm adjudication for multichannel ICU records.

The package reads WFDB-style alarm records, checks signal quality,
detects beats, and decides whether a monitor alarm was genuine. Two
rule families are provided: threshold tests over beat annotations
(baseline and improved voting) and warping-distance classifiers for
ventricular tachycardia alarms backed by beat banks or a labelled
training corpus.

Each name is imported from the module that defines it, for example
``from alarmsentinel.alarm_logic import classify_alarm``; the package
root exports nothing.
"""
