// Umbrella header for the Kalman-filter layer.
#pragma once

#include "kalman/adaptive.hpp"
#include "kalman/analysis.hpp"
#include "kalman/approximation_strategies.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/interleaved.hpp"
#include "kalman/model.hpp"
#include "kalman/recursion.hpp"
#include "kalman/reference.hpp"
#include "kalman/sskf.hpp"
#include "kalman/strategy.hpp"
