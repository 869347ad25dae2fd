// Umbrella header for the telemetry subsystem. Instrumented code includes
// this one header; recording is gated at run time (obs::enabled()).
#pragma once

#include "pamr/obs/metrics.hpp"
#include "pamr/obs/registry.hpp"
#include "pamr/obs/report.hpp"
#include "pamr/obs/trace.hpp"
