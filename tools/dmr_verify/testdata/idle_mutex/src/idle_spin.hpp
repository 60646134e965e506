#pragma once
class SpinThing {
  mutable dmr::SpinMutex lonely_spin_;
  int unguarded_ = 0;
};
